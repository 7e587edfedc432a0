package simsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/sim"
)

// runJob executes one queued job end to end, choosing the terminal (or
// requeue) transition from how the sweep ended.
func (s *Server) runJob(id string) {
	j, ok := s.store.Get(id)
	if !ok || j.State != jobstore.Queued {
		return // canceled (or otherwise moved) while waiting in the queue
	}
	a := s.watch(id)
	defer s.unwatch(id, a)

	jobCtx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	a.mu.Lock()
	a.cancel = cancel
	a.startedAt = time.Now()
	a.mu.Unlock()

	if err := s.transition(id, a, jobstore.Running, "picked up by worker"); err != nil {
		s.logf("%s: %v", id, err)
		return
	}
	err := s.execute(jobCtx, id, a)
	a.mu.Lock()
	userCancel := a.userCancel
	a.mu.Unlock()
	switch {
	case err == nil:
		err = s.transition(id, a, jobstore.Done, "sweep complete")
	case userCancel && errors.Is(err, context.Canceled):
		err = s.transition(id, a, jobstore.Canceled, "canceled by request")
	case errors.Is(err, context.Canceled):
		// Drain: completed indices are already durable; the next
		// process resumes from them.
		err = s.transition(id, a, jobstore.Queued, "drained: simd shutting down")
	default:
		err = s.transition(id, a, jobstore.Failed, err.Error())
	}
	if err != nil {
		s.logf("%s: %v", id, err)
	}
}

// execute runs the job's sweep, skipping every index that is already
// durably complete (checkpoint record or cache hit), persisting each
// run as it finishes, and finally merging the report from the cache.
func (s *Server) execute(ctx context.Context, id string, a *activeJob) error {
	j, ok := s.store.Get(id)
	if !ok {
		return fmt.Errorf("job %s vanished", id)
	}
	var sp JobSpec
	if err := json.Unmarshal(j.Spec, &sp); err != nil {
		return fmt.Errorf("bad stored spec: %w", err)
	}
	sp = sp.Normalize()
	simu, err := sp.Simulation()
	if err != nil {
		return err
	}
	n := sp.Runs
	keys := make([]string, n)
	for i := range keys {
		if keys[i], err = sp.RunKey(i); err != nil {
			return err
		}
	}

	// Resume point: indices recorded in the job's checkpoint log plus
	// indices whose results another job already cached. Cache hits are
	// promoted into the checkpoint log, all in one append, so the job's
	// own record is complete. The probe reads and verifies each entry: a
	// corrupt one, or one written before entries carried a digest, is a
	// miss and its run is recomputed.
	skip := make([]int, 0, n)
	var hits []jobstore.RunRecord
	var scratch []byte
	for i := 0; i < n; i++ {
		if _, done := j.Runs[i]; done {
			skip = append(skip, i)
			continue
		}
		if _, hit := s.cache.get(keys[i], &scratch); hit {
			hits = append(hits, jobstore.RunRecord{Index: i, Key: keys[i]})
			skip = append(skip, i)
		}
	}
	if err := s.store.RecordRuns(id, hits); err != nil {
		return err
	}
	if len(skip) > 0 {
		s.logf("%s: resuming with %d/%d runs already complete", id, len(skip), n)
	}

	if sp.Distributed {
		return s.executeDistributed(ctx, id, a, sp, j.Spec, keys, skip)
	}

	if len(skip) < n {
		runs := make([]sim.Run, n)
		for i := range runs {
			runs[i] = sim.Pin(simu, sp.RunSeed(i))
		}
		p := &runPersister{srv: s, job: id, a: a, keys: keys, total: n, lastEvents: make([]uint64, n), putErr: make([]error, n)}
		p.done = len(skip) // resumed runs count toward runs_completed

		_, err := sim.RunSweep(ctx, runs, sim.SweepOptions{
			Workers:     s.sweepWorkers,
			SkipIndices: skip,
			Observer:    p,
			Completed:   p.completed,
		})
		if err != nil {
			return err
		}
		if err := p.firstPutErr(); err != nil {
			return err
		}
	}
	return s.merge(id, sp, keys)
}

// executeDistributed serves one distributed job: instead of running the
// sweep locally, it opens a claim ledger over the index space — durably
// backed by the job's write-ahead log, so a restarted coordinator
// resumes mid-flight with live leases, permanent claim-ID fences, and
// per-index attempt counts intact — marks indices already durable as
// done, and registers the ledger with the HTTP claim surface. It then
// waits for workers to publish every index; for the ledger turning
// fatal (a quarantined run or an unwritable WAL), which fails the job
// loudly with the diagnosis; or for cancellation/drain, which
// unregisters the ledger so outstanding claims are fenced (their
// publishes get 410) and the job takes its normal requeue/cancel
// transition with everything already published still durable. On
// completion the report is merged exclusively from cache bytes, exactly
// like a local run.
func (s *Server) executeDistributed(ctx context.Context, id string, a *activeJob, sp JobSpec, raw json.RawMessage, keys []string, skip []int) error {
	led := coord.NewLedger(sp.Runs, s.lease)
	led.SetMaxAttempts(s.maxAttempts)
	wal, recs, err := coord.OpenWAL(filepath.Join(s.store.JobDir(id), "claims.ndjson"))
	if err != nil {
		return err
	}
	defer wal.Close()
	if err := led.Recover(wal, recs); err != nil {
		return err
	}
	if len(recs) > 0 {
		s.logf("%s: replayed %d claim-ledger records", id, len(recs))
	}
	// Checkpointed/cached indices override replayed claim state: bytes
	// already durable trump any stale lease over them.
	led.MarkDone(skip...)
	d := &distJob{ledger: led, spec: sp, raw: raw, keys: keys, a: a}
	s.cmu.Lock()
	s.coords[id] = d
	s.cmu.Unlock()
	defer func() {
		s.cmu.Lock()
		delete(s.coords, id)
		s.cmu.Unlock()
		d.pub.Lock()
		d.closed = true
		d.pub.Unlock()
	}()
	s.logf("%s: accepting claims (%d/%d runs already complete, lease %s)", id, len(skip), sp.Runs, s.lease)
	// A fully-recovered sweep may be done (or fatal) already; prefer
	// done — every index durable means the poison verdict is moot.
	select {
	case <-led.Done():
		return s.merge(id, sp, keys)
	default:
	}
	select {
	case <-led.Done():
		return s.merge(id, sp, keys)
	case <-led.Fatal():
		return led.FatalErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// merge streams the job's report into the store purely from the
// content-addressed cache — never from in-memory outcomes — so resumed
// and uninterrupted sweeps serialize from the same source bytes. Each
// entry is verified against its digest and spliced in verbatim.
func (s *Server) merge(id string, sp JobSpec, keys []string) error {
	j, _ := s.store.Get(id)
	h, err := sp.SpecHash()
	if err != nil {
		return err
	}
	head, err := reportHead(h, j.Spec)
	if err != nil {
		return err
	}
	var scratch []byte
	return s.store.WriteResult(id, func(w io.Writer) error {
		return writeReport(w, head, len(keys), sp.RunSeed, func(i int) ([]byte, error) {
			data, ok := s.cache.get(keys[i], &scratch)
			if !ok {
				return nil, fmt.Errorf("run %d: result missing from cache (key %s)", i, keys[i])
			}
			return data, nil
		})
	})
}

// runPersister is the sweep observer that makes runs durable: the
// result bytes go to the content-addressed cache in RunFinished, and
// only then does the Completed hook append the index to the job's
// checkpoint log — a crash between the two is repaired by the cache
// probe on resume.
type runPersister struct {
	srv   *Server
	job   string
	a     *activeJob
	keys  []string
	total int

	mu         sync.Mutex
	lastEvents []uint64
	done       int
	putErr     []error
}

func (p *runPersister) RunStarted(info sim.RunInfo) {
	idx := info.Index
	p.srv.publishEvent(p.job, p.a, event{Type: "run_started", Index: &idx, Seed: info.Seed, Total: p.total})
}

func (p *runPersister) RunProgress(info sim.RunInfo, prog sim.Progress) {
	p.mu.Lock()
	p.lastEvents[info.Index] = prog.Events
	var total uint64
	for _, e := range p.lastEvents {
		total += e
	}
	p.mu.Unlock()
	p.a.mu.Lock()
	p.a.events = total
	p.a.mu.Unlock()
	idx := info.Index
	p.srv.publishEvent(p.job, p.a, event{
		Type: "run_progress", Index: &idx, Seed: info.Seed,
		Events: prog.Events, SimSeconds: prog.SimSeconds,
	})
}

func (p *runPersister) RunFinished(info sim.RunInfo, out sim.Outcome) {
	if out.Err != nil || out.Result == nil {
		return
	}
	data, err := json.Marshal(out.Result)
	if err == nil {
		err = p.srv.cache.Put(p.keys[info.Index], data)
	}
	if err != nil {
		p.mu.Lock()
		p.putErr[info.Index] = err
		p.mu.Unlock()
		p.srv.logf("%s: run %d: persisting result: %v", p.job, info.Index, err)
	}
}

// completed is the sweep's Completed hook: it runs on the same worker
// goroutine after RunFinished, so the cache write is already done.
func (p *runPersister) completed(i int) {
	p.mu.Lock()
	failed := p.putErr[i] != nil
	p.mu.Unlock()
	if failed {
		return // nothing durable to record; the job will fail at merge
	}
	if err := p.srv.store.RecordRun(p.job, i, p.keys[i]); err != nil {
		p.srv.logf("%s: run %d: checkpoint: %v", p.job, i, err)
		return
	}
	p.mu.Lock()
	p.done++
	done := p.done
	p.mu.Unlock()
	idx := i
	p.srv.publishEvent(p.job, p.a, event{Type: "run_finished", Index: &idx, Completed: done, Total: p.total})
}

func (p *runPersister) firstPutErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, err := range p.putErr {
		if err != nil {
			return err
		}
	}
	return nil
}
