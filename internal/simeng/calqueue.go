package simeng

import (
	"math"
	"slices"
)

// The calendar queue: the simulator's pending-event structure.
//
// Events live in an array of time buckets covering the near-future
// window [base, base+width*nb); an event's bucket is
// int((at-base)/width). Inserting is an append; the queue sorts a
// bucket by the engine's total order (at, priority, seq) only when the
// drain cursor reaches it, so push and pop are O(1) amortized — the
// per-event share of one pdqsort — instead of the O(log n)
// pointer-chasing sift of the binary heap this replaced (see naive_test.go,
// retained as the differential-test oracle).
//
// Three auxiliary stores keep the bucket invariant airtight:
//
//   - spill: a small binary heap for events inserted into the region
//     the cursor has already passed or is currently draining — most
//     commonly events scheduled at exactly the current timestamp
//     (coalesced dispatch passes, chained same-time arrivals). The
//     head of the queue is always min(sorted-bucket head, spill head).
//   - overflow: the ladder rung for far-future events (at >= horizon),
//     e.g. a lazily-chained arrival parked beyond the window. When the
//     window drains, the queue jumps base to the earliest overflow
//     event and redistributes the rung.
//   - scratch: a reusable staging slice for rebuilds, so steady-state
//     window advances allocate nothing.
//
// Sizing: the bucket count doubles when occupancy exceeds
// bucketOccupancy events per bucket (checked on insert) and halves
// toward the live count at window advances; the width is retuned at
// rebuilds to bucketOccupancy times the mean observed inter-event gap,
// so the window tracks the workload's actual event density. All
// structural moves (growth, shrink, window advance, cancellation
// compaction) funnel through one rebuild path.
//
// Ordering stays byte-identical to the heap's: the comparator is the
// same strict total order (at, priority, seq), seq is unique, and
// bucket boundaries only partition that order (everything in an
// earlier bucket sorts before everything in a later one), so the pop
// sequence — and therefore every downstream simulation artifact — is
// exactly the heap's.

// qent is a bucket entry: the event's sort key by value plus the event
// pointer. Sorting compares the inline key only, so a bucket sort
// touches contiguous memory instead of chasing *Event pointers.
type qent struct {
	at   Time
	seq  uint64
	e    *Event
	prio int32
}

// qless is the queue's total order: (at, priority, seq), identical to
// the replaced heap's comparator. seq is unique, so it is strict.
func qless(a, b qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// cmpQent is qless as a three-way comparison for slices.SortFunc; it
// never returns 0 because seq is unique.
func cmpQent(a, b qent) int {
	if qless(a, b) {
		return -1
	}
	return 1
}

// sortBucket sorts one bucket into (at, priority, seq) order. Buckets
// are small by construction (the width tuner targets bucketOccupancy
// events each), so the common case is a hand-rolled insertion sort
// whose qless calls inline — measurably cheaper than the indirect
// comparator calls of slices.SortFunc, which handles the rare large
// bucket (e.g. a t=0 submission storm).
func sortBucket(b []qent) {
	if len(b) > 32 {
		slices.SortFunc(b, cmpQent)
		return
	}
	for i := 1; i < len(b); i++ {
		q := b[i]
		j := i - 1
		for j >= 0 && qless(q, b[j]) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = q
	}
}

const (
	// minCalBuckets/maxCalBuckets bound the bucket array; the occupancy
	// policy moves nb inside this range by doubling/halving.
	minCalBuckets = 64
	maxCalBuckets = 1 << 20
	// defaultCalWidth seeds the bucket width before any inter-event gaps
	// have been observed (simulated seconds).
	defaultCalWidth = 1.0
	// minCalWidth/maxCalWidth clamp the retuned width so degenerate gap
	// statistics (all-zero or enormous) cannot wedge the window.
	minCalWidth = 1e-9
	maxCalWidth = 1e12
	// widthTuneSamples is the number of observed gaps required before a
	// rebuild retunes the width.
	widthTuneSamples = 32
	// bucketOccupancy is the width tuner's target events-per-bucket.
	// Wider buckets mean fewer distinct slice headers touched by the
	// random-index appends in place — much friendlier to the cache than
	// one-event buckets — while runs of this size still sort in a few
	// comparisons each. The growth threshold in enqueue matches it, so
	// the window span tracks the pending-event span.
	bucketOccupancy = 4
	// compactMinCanceled gates cancellation compaction: a sweep runs
	// only once at least this many canceled events are queued AND they
	// make up at least half the queue, so bucket scans never degrade to
	// stepping over tombstones while small cancel counts stay free.
	compactMinCanceled = 64
)

// QueueStats reports the calendar queue's internal health counters,
// surfaced through benchkit into the BENCH reports.
type QueueStats struct {
	// PeakPending is the largest number of live (non-canceled) events
	// queued at once.
	PeakPending int `json:"peak_pending"`
	// Buckets and Width are the bucket-array size and bucket width
	// (simulated seconds) at sampling time.
	Buckets int     `json:"buckets"`
	Width   float64 `json:"width"`
	// PeakBucket is the largest single bucket ever sorted — the queue's
	// worst-case batch, e.g. the t=0 submission storm of a batch replay.
	PeakBucket int `json:"peak_bucket"`
	// PeakOverflow is the deepest the far-future overflow rung got.
	PeakOverflow int `json:"peak_overflow"`
	// Rebuilds counts structural reorganizations (growth, shrink, and
	// window advances); Compactions counts cancellation sweeps.
	Rebuilds    uint64 `json:"rebuilds"`
	Compactions uint64 `json:"compactions"`
}

// Stats returns the queue counters accumulated since construction (or
// the last Reset), with the current bucket geometry filled in.
func (s *Simulator) Stats() QueueStats {
	st := s.stats
	st.Buckets = s.nb
	st.Width = s.width
	return st
}

// initCalendar lazily sizes the bucket array at the first enqueue.
func (s *Simulator) initCalendar(at Time) {
	s.nb = minCalBuckets
	s.buckets = make([][]qent, s.nb)
	s.setWindow(defaultCalWidth, at)
}

// setWindow points the bucket window at [base, base+width*nb).
func (s *Simulator) setWindow(width float64, base Time) {
	s.width = width
	s.invWidth = 1 / width
	s.base = base
	s.horizon = base + width*float64(s.nb)
	s.cursor = 0
	s.cur = nil
	s.curIdx = 0
}

// enqueue places a freshly scheduled event. When the queue just
// drained, the window snaps to the new event's time so steady-state
// schedule/fire loops stay in bucket 0 and never touch the overflow
// rung.
func (s *Simulator) enqueue(e *Event) {
	if s.nb == 0 {
		s.initCalendar(e.at)
	} else if s.count == 0 {
		s.canceled = 0 // self-heal any cancel-after-fire miscount
		if s.cur != nil {
			// Release a fully drained bucket the cursor still aliases, so
			// the window snap below cannot leave its spent entries behind
			// for a later scan.
			s.buckets[s.cursor] = s.cur[:0]
		}
		s.setWindow(s.width, e.at)
	}
	s.count++
	if live := s.count - s.canceled; live > s.stats.PeakPending {
		s.stats.PeakPending = live
	}
	s.place(qent{at: e.at, seq: e.seq, e: e, prio: e.priority})
	if s.count > bucketOccupancy*s.nb && s.nb < maxCalBuckets {
		s.rebuild(s.nb*2, s.width, false)
	}
}

// place routes one entry to its bucket, the spill heap (already-passed
// region, including the currently draining bucket), or the overflow
// rung (at or beyond the window horizon).
func (s *Simulator) place(q qent) {
	if q.at >= s.horizon {
		s.overflow = append(s.overflow, q)
		if len(s.overflow) > s.stats.PeakOverflow {
			s.stats.PeakOverflow = len(s.overflow)
		}
		return
	}
	if q.at < s.base {
		// Behind the window (the window jumped ahead of the clock at the
		// last advance); interleaves through the spill heap.
		s.spillPush(q)
		return
	}
	idx := int((q.at - s.base) * s.invWidth)
	if idx >= s.nb {
		// Floating-point rounding at the horizon boundary.
		s.overflow = append(s.overflow, q)
		if len(s.overflow) > s.stats.PeakOverflow {
			s.stats.PeakOverflow = len(s.overflow)
		}
		return
	}
	if idx < s.cursor || (idx == s.cursor && s.cur != nil) {
		// The cursor already passed (or is draining) this bucket's time
		// range; the sorted slice must not be disturbed.
		s.spillPush(q)
		return
	}
	s.buckets[idx] = append(s.buckets[idx], q)
}

// advanceBucket moves the drain cursor to the next non-empty bucket,
// sorting it into the current drain slice. It advances the window over
// the overflow rung when the near-future buckets are exhausted, and
// reports false only when the whole queue is empty.
func (s *Simulator) advanceBucket() bool {
	if s.count == 0 {
		return false
	}
	if s.cur != nil {
		// Release the drained bucket's storage for reuse.
		s.buckets[s.cursor] = s.cur[:0]
		s.cur = nil
		s.curIdx = 0
		s.cursor++
	}
	for {
		for ; s.cursor < s.nb; s.cursor++ {
			if b := s.buckets[s.cursor]; len(b) > 0 {
				sortBucket(b)
				if len(b) > s.stats.PeakBucket {
					s.stats.PeakBucket = len(b)
				}
				s.cur = b
				s.curIdx = 0
				return true
			}
		}
		// Window exhausted: everything left is in the overflow rung
		// (count > 0 guarantees it is non-empty). Jump the window to the
		// earliest far-future event and redistribute.
		s.rebuild(s.shrunkNB(), s.tunedWidth(), false)
	}
}

// tunedWidth derives the bucket width from the mean observed
// inter-event gap (targeting ~2 events per bucket), keeping the
// current width until enough gaps accumulate.
func (s *Simulator) tunedWidth() float64 {
	if s.gapCnt < widthTuneSamples {
		return s.width
	}
	w := bucketOccupancy * s.gapSum / float64(s.gapCnt)
	s.gapSum, s.gapCnt = 0, 0
	if !(w >= minCalWidth) { // also catches NaN
		return minCalWidth
	}
	if w > maxCalWidth {
		return maxCalWidth
	}
	return w
}

// shrunkNB halves the bucket count toward the current occupancy (the
// growth direction is handled on insert).
func (s *Simulator) shrunkNB() int {
	nb := s.nb
	for nb > minCalBuckets && s.count < bucketOccupancy*nb/4 {
		nb /= 2
	}
	return nb
}

// rebuild is the single structural-maintenance path: it gathers every
// pending entry, optionally drops canceled ones (compaction), resizes
// the bucket array, re-anchors the window at the earliest pending
// event, and redistributes. With an unchanged bucket count it reuses
// every backing array, so steady-state window advances allocate
// nothing.
func (s *Simulator) rebuild(nb int, width float64, dropCanceled bool) {
	s.stats.Rebuilds++
	s.scratch = s.gather(s.scratch[:0])
	if dropCanceled {
		kept := s.scratch[:0]
		for _, q := range s.scratch {
			if q.e.canceled {
				s.recycle(q.e)
				continue
			}
			kept = append(kept, q)
		}
		// Zero the dropped tail so stale *Event pointers are not retained
		// past the pool.
		for i := len(kept); i < len(s.scratch); i++ {
			s.scratch[i] = qent{}
		}
		s.scratch = kept
		s.count = len(kept)
		s.canceled = 0
	}
	if nb != s.nb {
		s.nb = nb
		s.buckets = make([][]qent, nb)
	}
	// Anchor the window at the earliest pending event (never behind the
	// clock: pending timestamps are always >= now), so bucket 0 is
	// guaranteed non-empty after redistribution and the window always
	// makes progress over the overflow rung.
	base := s.now
	if len(s.scratch) > 0 {
		base = s.scratch[0].at
		for _, q := range s.scratch[1:] {
			if q.at < base {
				base = q.at
			}
		}
	}
	if len(s.scratch) > 0 && math.IsInf(s.scratch[0].at, 1) && math.IsInf(base, 1) {
		// Degenerate corner: every pending event sits at +Inf (the heap
		// fired these in order too). Bucket arithmetic is NaN there, so
		// park them all in bucket 0 directly.
		s.setWindow(width, 0)
		s.base = math.Inf(1)
		s.horizon = math.Inf(1)
		s.buckets[0] = append(s.buckets[0][:0], s.scratch...)
		return
	}
	s.setWindow(width, base)
	for _, q := range s.scratch {
		s.place(q)
	}
}

// gather drains every pending entry — current drain slice, buckets,
// spill heap, and overflow rung — into dst, truncating the sources in
// place so their capacity is reused.
func (s *Simulator) gather(dst []qent) []qent {
	if s.cur != nil {
		dst = append(dst, s.cur[s.curIdx:]...)
		s.buckets[s.cursor] = s.cur[:0]
		s.cur = nil
		s.curIdx = 0
	}
	for i := range s.buckets {
		if b := s.buckets[i]; len(b) > 0 {
			dst = append(dst, b...)
			s.buckets[i] = b[:0]
		}
	}
	dst = append(dst, s.spill...)
	clearQents(s.spill)
	s.spill = s.spill[:0]
	dst = append(dst, s.overflow...)
	clearQents(s.overflow)
	s.overflow = s.overflow[:0]
	s.cursor = 0
	return dst
}

func clearQents(qs []qent) {
	for i := range qs {
		qs[i] = qent{}
	}
}

// maybeCompact sweeps canceled events out of the queue once they pass
// the compaction threshold, recycling them into the event pool. Called
// from Event.Cancel.
func (s *Simulator) maybeCompact() {
	if s.canceled >= compactMinCanceled && 2*s.canceled >= s.count {
		s.stats.Compactions++
		s.rebuild(s.nb, s.width, true)
	}
}

// spillPush inserts into the spill min-heap (ordered by qless).
func (s *Simulator) spillPush(q qent) {
	s.spill = append(s.spill, q)
	i := len(s.spill) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !qless(s.spill[i], s.spill[p]) {
			break
		}
		s.spill[i], s.spill[p] = s.spill[p], s.spill[i]
		i = p
	}
}

// spillPop removes the spill heap's minimum.
func (s *Simulator) spillPop() {
	n := len(s.spill) - 1
	s.spill[0] = s.spill[n]
	s.spill[n] = qent{}
	s.spill = s.spill[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && qless(s.spill[r], s.spill[l]) {
			c = r
		}
		if !qless(s.spill[c], s.spill[i]) {
			return
		}
		s.spill[i], s.spill[c] = s.spill[c], s.spill[i]
		i = c
	}
}

// discardCur drops the canceled event at the drain-slice head,
// recycling it into the pool.
func (s *Simulator) discardCur() {
	e := s.cur[s.curIdx].e
	s.cur[s.curIdx] = qent{}
	s.curIdx++
	s.count--
	s.canceled--
	s.recycle(e)
}

// discardSpill drops the canceled event at the spill-heap top.
func (s *Simulator) discardSpill() {
	e := s.spill[0].e
	s.spillPop()
	s.count--
	s.canceled--
	s.recycle(e)
}

// peekLive returns the earliest live event without removing it,
// discarding canceled entries encountered at the head (exactly as the
// heap's peek did). It returns nil when the queue is empty.
func (s *Simulator) peekLive() *Event {
	for {
		for s.curIdx < len(s.cur) && s.cur[s.curIdx].e.canceled {
			s.discardCur()
		}
		for len(s.spill) > 0 && s.spill[0].e.canceled {
			s.discardSpill()
		}
		if s.curIdx < len(s.cur) {
			if len(s.spill) == 0 || qless(s.cur[s.curIdx], s.spill[0]) {
				return s.cur[s.curIdx].e
			}
			return s.spill[0].e
		}
		if len(s.spill) > 0 {
			return s.spill[0].e
		}
		if !s.advanceBucket() {
			return nil
		}
	}
}

// removeHead removes the event peekLive just returned. The head is by
// construction live and at the front of either the drain slice or the
// spill heap; the same comparator re-picks it.
func (s *Simulator) removeHead() {
	if s.curIdx < len(s.cur) && (len(s.spill) == 0 || qless(s.cur[s.curIdx], s.spill[0])) {
		s.cur[s.curIdx] = qent{}
		s.curIdx++
	} else {
		s.spillPop()
	}
	s.count--
}

// popAt removes and returns the next live event due exactly at `at`,
// or nil when the next live event is due later (or the structure needs
// a bucket advance — the general pop path then picks it up). It is the
// same-timestamp batch-dispatch fast path: equal timestamps are
// adjacent in the drain slice or spill heap, so draining a run costs
// one comparison per event with no bucket-advance machinery.
func (s *Simulator) popAt(at Time) *Event {
	for {
		for s.curIdx < len(s.cur) && s.cur[s.curIdx].e.canceled {
			s.discardCur()
		}
		for len(s.spill) > 0 && s.spill[0].e.canceled {
			s.discardSpill()
		}
		if s.curIdx < len(s.cur) {
			if len(s.spill) == 0 || qless(s.cur[s.curIdx], s.spill[0]) {
				if s.cur[s.curIdx].at != at {
					return nil
				}
				e := s.cur[s.curIdx].e
				s.cur[s.curIdx] = qent{}
				s.curIdx++
				s.count--
				return e
			}
			// fall through to spill head below
		} else if len(s.spill) == 0 {
			return nil
		}
		if s.spill[0].at != at {
			return nil
		}
		e := s.spill[0].e
		s.spillPop()
		s.count--
		return e
	}
}
