package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/internal/simsrv"
	"repro/sim"
)

// fsyncsPerCall is how many fsyncs each replayed jobstore call makes:
// every one appends a line to an NDJSON log, or writes a file, and
// syncs it once.
var fsyncsPerCall = map[string]int{
	"jobstore.create":     1,
	"jobstore.transition": 1,
	"jobstore.record_run": 1,
	"jobstore.set_result": 1,
}

// replayOut is what the layer replay measured besides its spans.
type replayOut struct {
	runs        int
	wall        time.Duration // the replayed job on the workload's path
	sweepWall   time.Duration
	sweepSetup  time.Duration // RunSweep called → first run started
	events      uint64
	resultBytes int64
	reportBytes int
}

// replay performs the work of one service job through the layers'
// public functions, in the order simd calls them, on a fresh store and
// cache under the run's work directory:
//
//   - the execute path: jobstore Create and Transition, sim.RunSweep
//     with an Observer that encodes each result, Cache.Put and
//     Store.RecordRun, then the merge (Cache.Get per run,
//     json.Marshal of the simsrv.Report, Store.SetResult);
//   - the cached path: the same spec again, each run found with
//     Cache.Get and promoted with RecordRun, then the merge;
//   - the coordinator's durability: a coord.Ledger over a fresh WAL
//     granting and completing claims of eight indices, as simw asks.
//
// Both merged reports must equal served, the report simd produced for
// the same spec.
func (b *bench) replay(ctx context.Context, sp sim.JobSpec, served []byte, tr *tracer) (*replayOut, error) {
	sp = sp.Normalize()
	dir := filepath.Join(b.work, "replay")
	store, err := jobstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	cache, err := simsrv.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	raw, err := sp.MarshalNormalized()
	if err != nil {
		return nil, err
	}
	keys := make([]string, sp.Runs)
	for i := range keys {
		if keys[i], err = sp.RunKey(i); err != nil {
			return nil, err
		}
	}
	out := &replayOut{runs: sp.Runs}
	l := &layers{tr: tr, store: store, cache: cache, sp: sp, raw: raw, keys: keys}

	execRep, execWall, err := l.execute(ctx, out)
	if err != nil {
		return nil, err
	}
	cachedRep, cachedWall, err := l.cached()
	if err != nil {
		return nil, err
	}
	out.reportBytes = len(execRep)
	out.wall = execWall
	if b.o.workload.cached {
		out.wall = cachedWall
	}
	if served != nil && !bytes.Equal(execRep, served) {
		b.res.problems = append(b.res.problems, fmt.Sprintf("replayed report of seed %d differs from simd's", sp.Seed))
	}
	if !bytes.Equal(cachedRep, execRep) {
		b.res.problems = append(b.res.problems, fmt.Sprintf("replayed cached report of seed %d differs from the executed one", sp.Seed))
	}
	return out, ledgerReplay(filepath.Join(dir, "claims.ndjson"), sp.Runs, tr)
}

// layers holds what one replay shares across its jobs.
type layers struct {
	tr    *tracer
	store *jobstore.Store
	cache *simsrv.Cache
	sp    sim.JobSpec
	raw   json.RawMessage
	keys  []string
}

// open creates the job and moves it to running, as submit and
// dispatch do.
func (l *layers) open(trace string, root int) (string, error) {
	t := time.Now()
	j, err := l.store.Create(l.raw)
	l.tr.add(trace, root, "jobstore.create", t, time.Now())
	if err != nil {
		return "", err
	}
	return j.ID, l.transition(trace, root, j.ID, jobstore.Running)
}

func (l *layers) transition(trace string, root int, id string, to jobstore.State) error {
	t := time.Now()
	_, err := l.store.Transition(id, to, "replay")
	l.tr.add(trace, root, "jobstore.transition", t, time.Now())
	return err
}

// execute replays a job whose runs all execute.
func (l *layers) execute(ctx context.Context, out *replayOut) ([]byte, time.Duration, error) {
	const trace = "replay/exec"
	t0 := time.Now()
	root := l.tr.begin(trace, 0, "replay.job")
	id, err := l.open(trace, root)
	if err != nil {
		return nil, 0, err
	}
	simu, err := l.sp.Simulation()
	if err != nil {
		return nil, 0, err
	}
	n := l.sp.Runs
	runSpan := make([]int, n)
	started := make([]time.Time, n)
	var (
		mu       sync.Mutex
		first    time.Time
		failures []error
	)
	fail := func(err error) {
		mu.Lock()
		failures = append(failures, err)
		mu.Unlock()
	}
	sweep := l.tr.begin(trace, root, "sweep.run_sweep")
	sweepStart := time.Now()
	obs := sim.ObserverFuncs{
		OnStarted: func(info sim.RunInfo) {
			now := time.Now()
			mu.Lock()
			if first.IsZero() {
				first = now
			}
			mu.Unlock()
			started[info.Index] = now
			runSpan[info.Index] = l.tr.begin(trace, sweep, "simsrv.run")
		},
		OnFinished: func(info sim.RunInfo, o sim.Outcome) {
			i, rs := info.Index, runSpan[info.Index]
			l.tr.add(trace, rs, "engine.run", started[i], time.Now())
			if o.Err != nil || o.Result == nil {
				fail(fmt.Errorf("run %d: %v", i, o.Err))
				return
			}
			t := time.Now()
			data, err := json.Marshal(o.Result)
			l.tr.add(trace, rs, "simsrv.encode", t, time.Now())
			if err != nil {
				fail(err)
				return
			}
			t = time.Now()
			err = l.cache.Put(l.keys[i], data)
			l.tr.add(trace, rs, "simsrv.cache_put", t, time.Now())
			if err != nil {
				fail(err)
			}
			mu.Lock()
			out.events += o.Result.Events
			out.resultBytes += int64(len(data))
			mu.Unlock()
		},
	}
	_, err = sim.RunSweep(ctx, sweepRuns(simu, l.sp), sim.SweepOptions{
		BaseSeed: l.sp.Seed,
		Observer: obs,
		Completed: func(i int) {
			t := time.Now()
			if err := l.store.RecordRun(id, i, l.keys[i]); err != nil {
				fail(err)
			}
			l.tr.add(trace, runSpan[i], "jobstore.record_run", t, time.Now())
			l.tr.end(runSpan[i])
		},
	})
	out.sweepWall = time.Since(sweepStart)
	out.sweepSetup = first.Sub(sweepStart)
	l.tr.end(sweep)
	if err = errors.Join(append(failures, err)...); err != nil {
		return nil, 0, err
	}
	rep, err := l.merge(trace, root, id)
	if err != nil {
		return nil, 0, err
	}
	if err := l.transition(trace, root, id, jobstore.Done); err != nil {
		return nil, 0, err
	}
	l.tr.end(root)
	return rep, time.Since(t0), nil
}

// cached replays a resubmitted job: every run is found in the cache
// and promoted into the new job's checkpoint log.
func (l *layers) cached() ([]byte, time.Duration, error) {
	const trace = "replay/cached"
	t0 := time.Now()
	root := l.tr.begin(trace, 0, "replay.job")
	id, err := l.open(trace, root)
	if err != nil {
		return nil, 0, err
	}
	promote := l.tr.begin(trace, root, "simsrv.promote")
	for i, key := range l.keys {
		t := time.Now()
		_, hit := l.cache.Get(key)
		l.tr.add(trace, promote, "simsrv.cache_get", t, time.Now())
		if !hit {
			return nil, 0, fmt.Errorf("run %d: not in the cache", i)
		}
		t = time.Now()
		err := l.store.RecordRun(id, i, key)
		l.tr.add(trace, promote, "jobstore.record_run", t, time.Now())
		if err != nil {
			return nil, 0, err
		}
	}
	l.tr.end(promote)
	rep, err := l.merge(trace, root, id)
	if err != nil {
		return nil, 0, err
	}
	if err := l.transition(trace, root, id, jobstore.Done); err != nil {
		return nil, 0, err
	}
	l.tr.end(root)
	return rep, time.Since(t0), nil
}

// merge assembles and stores the report from cache bytes, as simd's
// merge does.
func (l *layers) merge(trace string, root int, id string) ([]byte, error) {
	m := l.tr.begin(trace, root, "simsrv.merge")
	defer l.tr.end(m)
	j, ok := l.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("job %s vanished", id)
	}
	h, err := l.sp.SpecHash()
	if err != nil {
		return nil, err
	}
	rep := simsrv.Report{SpecHash: h, EngineVersion: sim.Version, Spec: j.Spec, Runs: make([]simsrv.ReportRun, len(l.keys))}
	for i, key := range l.keys {
		t := time.Now()
		data, hit := l.cache.Get(key)
		l.tr.add(trace, m, "simsrv.cache_get", t, time.Now())
		if !hit {
			return nil, fmt.Errorf("run %d: not in the cache", i)
		}
		rep.Runs[i] = simsrv.ReportRun{Index: i, Seed: l.sp.RunSeed(i), Result: data}
	}
	t := time.Now()
	data, err := json.Marshal(rep)
	l.tr.add(trace, m, "simsrv.encode_report", t, time.Now())
	if err != nil {
		return nil, err
	}
	t = time.Now()
	err = l.store.SetResult(id, data)
	l.tr.add(trace, m, "jobstore.set_result", t, time.Now())
	return data, err
}

// ledgerReplay drives a claim ledger over a fresh WAL through the
// transitions of an n-run distributed job: claims of eight indices
// (simw's default), each index completed, each claim retired. Every
// transition is one fsynced WAL append, recorded as coord.wal_append.
func ledgerReplay(path string, n int, tr *tracer) error {
	const trace = "replay/coord"
	led := coord.NewLedger(n, coord.DefaultLease)
	wal, recs, err := coord.OpenWAL(path)
	if err != nil {
		return err
	}
	defer wal.Close()
	if err := led.Recover(wal, recs); err != nil {
		return err
	}
	for {
		t := time.Now()
		cl, ok := led.Claim("replay", 8)
		if !ok {
			break
		}
		tr.add(trace, 0, "coord.wal_append", t, time.Now())
		for i := cl.Start; i < cl.End; i++ {
			t = time.Now()
			if err := led.CompleteIndex(cl.ID, i); err != nil {
				return err
			}
			tr.add(trace, 0, "coord.wal_append", t, time.Now())
		}
		t = time.Now()
		if err := led.Complete(cl.ID); err != nil {
			return err
		}
		tr.add(trace, 0, "coord.wal_append", t, time.Now())
	}
	select {
	case <-led.Done():
		return nil
	default:
		return fmt.Errorf("ledger not done after claiming every index")
	}
}
