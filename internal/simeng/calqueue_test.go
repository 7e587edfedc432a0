package simeng

import (
	"math"
	"testing"
)

// popLiveNaive pops the oracle heap until it yields an item that was
// not canceled, mirroring how the simulator discards tombstones.
func popLiveNaive(q *naiveQueue, canceled map[int]bool) (naiveItem, bool) {
	for q.len() > 0 {
		it := q.pop()
		if !canceled[it.id] {
			return it, true
		}
	}
	return naiveItem{}, false
}

// TestDifferentialVsNaiveHeap drives randomized schedule/cancel/pop
// sequences through the calendar queue and the retained binary heap
// (naive_test.go) in lockstep and asserts bit-identical pop order — the same
// ids in the same sequence, including (at, priority, seq) tie-breaks
// and pops that follow cancellations. The schedule mix deliberately
// lands events at the exact current timestamp (spill heap), at repeated
// past timestamps' values (equal-at ties), and far beyond the bucket
// window (overflow rung), so every placement path is under test.
func TestDifferentialVsNaiveHeap(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		runDifferential(t, seed, 20000)
	}
}

func runDifferential(t *testing.T, seed uint64, ops int) {
	t.Helper()
	s := NewSimulator()
	oracle := &naiveQueue{}
	rng := NewRNG(seed)

	var fired []int
	record := func(arg uint32) { fired = append(fired, int(arg)) }

	ev := make(map[int]*Event)     // scheduled, not canceled, not yet fired
	canceled := make(map[int]bool) // ids canceled before firing
	var liveIDs []int              // cancel-candidate pool (lazily pruned)
	nextID := 0
	var seq uint64 // mirrors the simulator's internal seq counter
	var lastAt Time
	live := 0 // expected Pending()
	verified := 0

	schedule := func() {
		var at Time
		switch roll := rng.Intn(100); {
		case roll < 25:
			at = s.Now() // lands at/behind the drain cursor (spill path)
		case roll < 40 && lastAt >= s.Now():
			at = lastAt // exact equal-at tie with an earlier schedule
		case roll < 50:
			at = s.Now() + 1e6 + rng.Float64()*1e6 // overflow rung
		default:
			at = s.Now() + rng.Float64()*10
		}
		prio := rng.Intn(5) - 2
		id := nextID
		nextID++
		var e *Event
		if rng.Intn(4) == 0 {
			// Exercise the closure path too; the closure records the
			// same id the indexed path would.
			e = s.SchedulePriority(at, prio, func() { fired = append(fired, id) })
		} else {
			e = s.ScheduleIndexed(at, prio, record, uint32(id))
		}
		oracle.push(naiveItem{at: at, seq: seq, id: id, prio: int32(prio)})
		seq++
		lastAt = at
		ev[id] = e
		liveIDs = append(liveIDs, id)
		live++
	}

	cancel := func() {
		// Pick a random still-live id; prune fired/canceled ids as we
		// stumble on them so the pool stays honest.
		for len(liveIDs) > 0 {
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			e, ok := ev[id]
			if !ok {
				continue
			}
			e.Cancel()
			canceled[id] = true
			delete(ev, id)
			live--
			return
		}
	}

	pop := func(n uint64) {
		done := s.RunLimit(n)
		for i := uint64(0); i < done; i++ {
			it, ok := popLiveNaive(oracle, canceled)
			if !ok {
				t.Fatalf("seed %d: simulator fired %d events, oracle ran dry after %d",
					seed, done, i)
			}
			got := fired[verified]
			verified++
			if got != it.id {
				t.Fatalf("seed %d: pop %d: simulator fired id %d, oracle expects id %d (at=%g prio=%d seq=%d)",
					seed, verified-1, got, it.id, it.at, it.prio, it.seq)
			}
			delete(ev, got)
			live--
		}
	}

	for i := 0; i < ops; i++ {
		switch roll := rng.Intn(100); {
		case roll < 55:
			schedule()
		case roll < 75:
			cancel()
		default:
			pop(uint64(1 + rng.Intn(8)))
		}
		if got := s.Pending(); got != live {
			t.Fatalf("seed %d: op %d: Pending() = %d, want %d live events", seed, i, got, live)
		}
	}

	// Drain both completely: the tails must agree too.
	pop(math.MaxUint64)
	if _, ok := popLiveNaive(oracle, canceled); ok {
		t.Fatalf("seed %d: simulator drained but oracle still holds live events", seed)
	}
	if s.Pending() != 0 {
		t.Fatalf("seed %d: drained simulator reports Pending() = %d", seed, s.Pending())
	}
	if verified != len(fired) {
		t.Fatalf("seed %d: verified %d fires but recorded %d", seed, verified, len(fired))
	}
}

// TestCancelStormCompactsAndStaysFast cancels 90% of a 100k-event queue
// and asserts the live-event accounting stays exact, the compactor
// actually ran (reclaiming tombstone slots), only the surviving 10%
// fire, and the queue comes out of the storm still allocation-free on
// the warm schedule/fire loop.
func TestCancelStormCompactsAndStaysFast(t *testing.T) {
	s := NewSimulator()
	const n = 100000
	firedCount := 0
	fn := func(uint32) { firedCount++ }
	rng := NewRNG(7)
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = s.ScheduleIndexed(rng.Float64()*1e4, 0, fn, uint32(i))
	}
	for i, e := range evs {
		if i%10 != 0 {
			e.Cancel()
		}
	}
	const survivors = n / 10
	if got := s.Pending(); got != survivors {
		t.Fatalf("after canceling 90%%: Pending() = %d, want %d", got, survivors)
	}
	if s.Stats().Compactions == 0 {
		t.Fatalf("canceling 90%% of %d events triggered no compaction", n)
	}
	s.Run()
	if firedCount != survivors {
		t.Fatalf("fired %d callbacks, want %d survivors", firedCount, survivors)
	}
	if got := s.Fired(); got != survivors {
		t.Fatalf("Fired() = %d, want %d", got, survivors)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("after Run: Pending() = %d, want 0", got)
	}
	// The storm must not degrade the warm loop: rescheduling into the
	// compacted structure reuses pooled events and existing buckets.
	allocs := testing.AllocsPerRun(100, func() {
		s.ScheduleIndexed(s.Now()+1, 0, fn, 0)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("post-storm schedule/fire loop allocates %.1f allocs/op, want 0", allocs)
	}
}

// benchEventCore measures steady-state event throughput: fanout
// self-rescheduling events churn through the queue, one benchmark op
// per event fired. next picks each event's successor timestamp, which
// is what differentiates the workload shapes below.
func benchEventCore(b *testing.B, fanout int, next func(r *RNG, now Time) Time) {
	s := NewSimulator()
	r := NewRNG(1)
	var fn func(uint32)
	fn = func(arg uint32) {
		s.ScheduleIndexed(next(r, s.Now()), 0, fn, arg)
	}
	for i := 0; i < fanout; i++ {
		s.ScheduleIndexed(next(r, 0), 0, fn, uint32(i))
	}
	// Warm up: let the width tuner and bucket geometry settle.
	s.RunLimit(uint64(fanout) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	s.RunLimit(uint64(b.N))
}

// BenchmarkEventCoreUniform is the generic discrete-event shape:
// uniformly distributed inter-event gaps, no ties.
func BenchmarkEventCoreUniform(b *testing.B) {
	benchEventCore(b, 1024, func(r *RNG, now Time) Time {
		return now + r.Float64()
	})
}

// BenchmarkEventCoreBurst is the same-timestamp storm: all events
// collapse onto integer timestamps, so every dispatch is a 1024-event
// batch through the equal-at fast path.
func BenchmarkEventCoreBurst(b *testing.B) {
	benchEventCore(b, 1024, func(r *RNG, now Time) Time {
		return math.Floor(now) + 1
	})
}

// BenchmarkEventCoreFarFuture skews a slice of the load far beyond the
// bucket window, forcing the overflow rung and the window-advance
// rebuilds it implies.
func BenchmarkEventCoreFarFuture(b *testing.B) {
	benchEventCore(b, 1024, func(r *RNG, now Time) Time {
		if r.Intn(16) == 0 {
			return now + 1e6 + r.Float64()*1e6
		}
		return now + r.Float64()
	})
}
