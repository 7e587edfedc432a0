// Command perfbench is the service benchmark: it drives the real simd
// (and simw) binaries of the checkout it runs in, one client process
// with one outstanding job (a closed loop), and times every job from
// POST /v1/jobs until its merged report is fetched. Reports are checked
// against the public sim API in the same run.
//
// perfbench/run.sh builds the binaries and starts this program; see
// perfbench/README.md for the workloads, the metrics and the traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/sim"
)

// workload is one input shape. Every job of a workload is the
// baseline-f3 scenario at jobs simulated jobs per run and runs runs
// per service job, each with its own seed.
type workload struct {
	name        string
	jobs        int
	runs        int
	distributed bool // executed by two simw processes
	cached      bool // measured jobs resubmit the warm-up specs
}

// The distributed workload runs by hand only: BENCHMARK.json leaves it
// out because its figures drifted too far from run to run on the
// reference machine (see README.md).
var workloads = []workload{
	{name: "small-runs", jobs: 20, runs: 400},
	{name: "large-runs", jobs: 2500, runs: 4},
	{name: "cached-resubmit", jobs: 20, runs: 400, cached: true},
	{name: "distributed", jobs: 20, runs: 400, distributed: true},
}

// setups is how many times one run sets the service up; setup_s is
// their median, and the last one serves the measured window.
const setups = 3

// minJobs is the fewest measured jobs a window holds, however long a
// job takes.
const minJobs = 3

type options struct {
	workload workload
	index    int // position in workloads, mixed into job seeds
	seed     uint64
	seconds  float64
	trace    bool
	bin      string
	out      string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same jobs")
		seconds = flag.Float64("seconds", 15, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		bin     = flag.String("bin", ".bench_build/perfbench/bin", "directory holding the simd and simw binaries")
		out     = flag.String("out", ".bench_build/perfbench", "directory for stores and span files")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, out: *out, index: -1}
	for i, w := range workloads {
		if w.name == *name {
			o.workload, o.index = w, i
		}
	}
	if o.index < 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatalf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o)
	if err != nil {
		fatalf("%v", err)
	}
	for _, line := range res.summary {
		fmt.Println(line)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run prints.
type result struct {
	attempted, failed int
	problems          []string // verification failures; any makes the run incorrect
	metrics           map[string]metric
	summary           []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) say(format string, args ...any) {
	r.summary = append(r.summary, fmt.Sprintf(format, args...))
}

// run performs one benchmark run in a fresh work directory, removed
// when the run ends.
func run(ctx context.Context, o options) (*result, error) {
	work := filepath.Join(o.out, "work", fmt.Sprintf("%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{o: o, work: work, res: &result{metrics: make(map[string]metric)}, t0: time.Now()}
	defer b.stopAll()
	var err error
	if o.trace {
		err = b.traced(ctx)
	} else {
		err = b.untraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	return b.res, nil
}

// jobSeed derives the seed of job k of the run; warm-up jobs use k
// below zero. Distinct workloads and run seeds never share jobs.
func (o options) jobSeed(k int) uint64 {
	base := sim.DeriveSeed(o.seed, o.index)
	s := sim.DeriveSeed(base, k+1<<20)
	if s == 0 {
		s = 1
	}
	return s
}

func (o options) spec(k int) sim.JobSpec {
	return sim.JobSpec{
		Scenario:    "baseline-f3",
		Seed:        o.jobSeed(k),
		Jobs:        o.workload.jobs,
		Runs:        o.workload.runs,
		Distributed: o.workload.distributed,
	}
}

// warmupSpec is the spec of the warm-up job. The cached workload's
// measured jobs resubmit it, so there it is a full job; elsewhere a
// quarter of one warms simd as well and keeps set-up short.
func (o options) warmupSpec() sim.JobSpec {
	sp := o.spec(-1)
	if !o.workload.cached {
		sp.Runs = max(1, sp.Runs/4)
	}
	return sp
}

// measuredSpec is the spec of measured job k.
func (o options) measuredSpec(k int) sim.JobSpec {
	if o.workload.cached {
		return o.warmupSpec()
	}
	return o.spec(k)
}
