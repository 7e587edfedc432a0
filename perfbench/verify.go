package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/sim"
)

// report is the merged report as simd serves it.
type report struct {
	SpecHash      string `json:"spec_hash"`
	EngineVersion string `json:"engine_version"`
	Runs          []struct {
		Index  int             `json:"index"`
		Seed   uint64          `json:"seed"`
		Result json.RawMessage `json:"result"`
	} `json:"runs"`
}

// verifyReport checks a fetched report's shape against its spec and
// keeps the result bytes of one sampled run for checkDirect. Every
// mismatch is recorded on the job, which then counts as failed.
func verifyReport(j *jobRun, data []byte) {
	sp := j.spec.Normalize()
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		j.failf("report does not decode: %v", err)
		return
	}
	if rep.EngineVersion != sim.Version {
		j.failf("report engine_version %q, want %q", rep.EngineVersion, sim.Version)
	}
	if h, err := sp.SpecHash(); err != nil || rep.SpecHash != h {
		j.failf("report spec_hash %q, want %q (%v)", rep.SpecHash, h, err)
	}
	if len(rep.Runs) != sp.Runs {
		j.failf("report has %d runs, want %d", len(rep.Runs), sp.Runs)
		return
	}
	for i, r := range rep.Runs {
		if r.Index != i || r.Seed != sp.RunSeed(i) {
			j.failf("run slot %d holds index %d seed %d, want seed %d", i, r.Index, r.Seed, sp.RunSeed(i))
			return
		}
		var res struct {
			EngineVersion string `json:"engine_version"`
		}
		if err := json.Unmarshal(r.Result, &res); err != nil || res.EngineVersion != sim.Version {
			j.failf("run %d: result engine_version %q, want %q (%v)", i, res.EngineVersion, sim.Version, err)
			return
		}
	}
	j.sampleIdx = int(sp.Seed % uint64(sp.Runs))
	j.sample = bytes.Clone(rep.Runs[j.sampleIdx].Result)
}

// verifyTwin checks a resubmitted job's report against the report of
// its warm-up twin, byte for byte; an identical report inherits the
// twin's verified sample.
func verifyTwin(j *jobRun, data []byte, twin *jobRun, twinData []byte) {
	if data == nil {
		return // the job already failed
	}
	if !bytes.Equal(data, twinData) {
		j.failf("report differs from its warm-up twin %s (%d vs %d bytes)", twin.id, len(data), len(twinData))
		return
	}
	j.sampleIdx, j.sample = twin.sampleIdx, twin.sample
}

// checkDirect re-runs each job's sampled index through the public API,
// outside every timed window, and requires the service's bytes to be
// identical. Jobs sharing a spec share the direct run. The direct runs
// use one goroutine per CPU: nothing else is running by then.
func checkDirect(ctx context.Context, jobs []*jobRun) error {
	type key struct {
		seed uint64
		idx  int
	}
	var keys []key
	specs := make(map[key]sim.JobSpec)
	for _, j := range jobs {
		k := key{j.spec.Seed, j.sampleIdx}
		if _, dup := specs[k]; j.sample != nil && !dup {
			specs[k] = j.spec
			keys = append(keys, k)
		}
	}
	direct := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
				direct[i], errs[i] = runDirect(ctx, specs[keys[i]], keys[i].idx)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	want := make(map[key][]byte, len(keys))
	for i, k := range keys {
		want[k] = direct[i]
	}
	for _, j := range jobs {
		if j.sample == nil {
			continue // already failed verification
		}
		if w := want[key{j.spec.Seed, j.sampleIdx}]; !bytes.Equal(j.sample, w) {
			j.failf("run %d differs from a direct public-API run (%d vs %d bytes)", j.sampleIdx, len(j.sample), len(w))
		}
	}
	return nil
}

// runDirect executes run index i of the spec the way a sweep worker
// does — the full sweep geometry restricted to that one index — and
// returns its result JSON.
func runDirect(ctx context.Context, sp sim.JobSpec, i int) ([]byte, error) {
	sp = sp.Normalize()
	simu, err := sp.Simulation()
	if err != nil {
		return nil, err
	}
	out, err := sim.RunSweep(ctx, sweepRuns(simu, sp), sim.SweepOptions{
		BaseSeed:    sp.Seed,
		Workers:     1,
		OnlyIndices: []int{i},
	})
	if err != nil {
		return nil, fmt.Errorf("direct run %d of seed %d: %w", i, sp.Seed, err)
	}
	return json.Marshal(out[i].Result)
}

// sweepRuns builds a spec's sweep the way simd does: a 1-run job runs
// under exactly the base seed, wider sweeps derive seeds per index.
func sweepRuns(simu *sim.Simulation, sp sim.JobSpec) []sim.Run {
	runs := make([]sim.Run, sp.Runs)
	for i := range runs {
		if sp.Runs == 1 {
			runs[i] = sim.Pin(simu, sp.Seed)
		} else {
			runs[i] = sim.Run{Sim: simu}
		}
	}
	return runs
}
