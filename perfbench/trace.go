package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one job share
// a trace ID; a root span has no parent.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"` // since the tracer started
	End    int64  `json:"end_us"`
	Self   int64  `json:"self_us"` // the span minus the part its children cover
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// add records a span and returns its ID.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: t.us(start), End: t.us(end)})
	return id
}

// begin opens a span now; end closes it. Children may be added in
// between.
func (t *tracer) begin(trace string, parent int, name string) int {
	now := time.Now()
	return t.add(trace, parent, name, now, now)
}

func (t *tracer) end(id int) {
	now := t.us(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// finish computes every span's self time.
func (t *tracer) finish() {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of [lo, hi] that the union of iv covers.
// Children of one span may overlap: runs of a sweep execute in
// parallel.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// ms returns the durations, in milliseconds, of the spans called name
// whose trace starts with prefix.
func (t *tracer) ms(prefix, name string) []float64 {
	var v []float64
	for _, s := range t.spans {
		if s.Name == name && strings.HasPrefix(s.Trace, prefix) {
			v = append(v, float64(s.End-s.Start)/1000)
		}
	}
	return v
}

// count is the number of spans called name whose trace starts with
// prefix.
func (t *tracer) count(prefix, name string) int { return len(t.ms(prefix, name)) }

// selfByName sums self time, in milliseconds, per span name over the
// traces starting with prefix.
func (t *tracer) selfByName(prefix string) map[string]float64 {
	m := make(map[string]float64)
	for _, s := range t.spans {
		if strings.HasPrefix(s.Trace, prefix) {
			m[s.Name] += float64(s.Self) / 1000
		}
	}
	return m
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// serviceSpans turns the client-side timeline of one service job into
// spans under the job's ID: queue, sweep set-up, runs, merge, fetch.
func serviceSpans(tr *tracer, j *jobRun) {
	if j.fetched.IsZero() {
		return
	}
	trace := "svc/" + j.id
	root := tr.add(trace, 0, "service.job", j.submit, j.fetched)
	tr.add(trace, root, "simsrv.submit", j.submit, j.submitted)
	tr.add(trace, root, "simsrv.queue", j.submitted, j.running)
	mergeFrom := j.running
	if !j.firstRun.IsZero() {
		tr.add(trace, root, "sweep.setup", j.running, j.firstRun)
		tr.add(trace, root, "simsrv.runs", j.firstRun, j.lastRun)
		mergeFrom = j.lastRun
	}
	tr.add(trace, root, "simsrv.merge", mergeFrom, j.terminal)
	tr.add(trace, root, "simsrv.result_fetch", j.fetchStart, j.fetched)
}

// traced is the run that yields the per-layer metrics. It measures an
// untraced window and a traced one (simd under GODEBUG=gctrace=1, each
// job's events turned into spans), each half the run's length, then
// replays the workload's first job through the layers' public
// functions and probes the distributed protocol with in-process
// workers.
func (b *bench) traced(ctx context.Context) error {
	half := b.o.seconds / 2
	svc, tw, _, err := b.setUp(ctx, false)
	if err != nil {
		return err
	}
	plain, err := b.window(ctx, svc, tw, half, 0, false)
	b.stopService(svc)
	if err != nil {
		return err
	}
	if svc, tw, _, err = b.setUp(ctx, true); err != nil {
		return err
	}
	w, err := b.window(ctx, svc, tw, half, 1<<10, true)
	b.stopService(svc)
	if err != nil {
		return err
	}

	tr := newTracer()
	for _, j := range w.jobs {
		serviceSpans(tr, j)
	}
	rp, err := b.replay(ctx, w.jobs[0].spec, w.first, tr)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	w.first = nil
	dp, err := b.distProbe(ctx, tr)
	if err != nil {
		return fmt.Errorf("distributed probe: %w", err)
	}
	if err := checkDirect(ctx, b.checked); err != nil {
		return err
	}
	measured := append(append(append([]*jobRun(nil), plain.jobs...), w.jobs...), dp.jobs...)
	b.tally(measured)
	tr.finish()

	r := b.res
	runs := float64(rp.runs)
	var submit, queue, fetch, took, plainTook, rss []float64
	for _, j := range w.steady() {
		rss = append(rss, float64(j.peakRSSKB)/1024)
		submit = append(submit, ms(j.submitted.Sub(j.submit)))
		queue = append(queue, ms(j.serverQueue))
		fetch = append(fetch, ms(j.fetched.Sub(j.fetchStart)))
		took = append(took, ms(j.duration()))
	}
	for _, j := range plain.steady() {
		plainTook = append(plainTook, ms(j.duration()))
	}

	// engine and sweep, from the replay's execute path.
	engine := tr.ms("replay/exec", "engine.run")
	r.set("engine.run_ms_p50", median(engine), "ms")
	r.set("engine.events_per_s", float64(rp.events)/(sum(engine)/1000), "1/s")
	r.set("sweep.setup_ms", ms(rp.sweepSetup), "ms")
	r.set("sweep.busy_share", sum(tr.ms("replay/exec", "simsrv.run"))/(float64(runtime.GOMAXPROCS(0))*ms(rp.sweepWall)), "ratio")

	// simsrv: request timings from the traced window, layer calls from
	// the replay.
	r.set("simsrv.submit_ms", median(submit), "ms")
	r.set("simsrv.queue_wait_ms", median(queue), "ms")
	r.set("simsrv.run_ms_p50", median(tr.ms("replay/exec", "simsrv.run")), "ms")
	r.set("simsrv.encode_ms_per_run", sum(tr.ms("replay/exec", "simsrv.encode"))/runs, "ms")
	r.set("simsrv.result_kb_per_run", float64(rp.resultBytes)/1024/runs, "KB")
	put := tr.ms("replay/exec", "simsrv.cache_put")
	r.set("simsrv.cache_put_ms_p50", median(put), "ms")
	r.set("simsrv.cache_put_ms_p99", percentile(put, 99), "ms")
	r.set("simsrv.cache_get_ms_p50", median(tr.ms("replay/", "simsrv.cache_get")), "ms")
	r.set("simsrv.merge_ms", median(tr.ms("replay/", "simsrv.merge")), "ms")
	r.set("simsrv.report_mb", float64(rp.reportBytes)/(1<<20), "MB")
	r.set("simsrv.result_fetch_ms", median(fetch), "ms")

	// jobstore, from the replay. fsyncs are computed from the calls the
	// workload's path makes, one fsync per call (see fsyncsPerCall).
	record := tr.ms("replay/", "jobstore.record_run")
	r.set("jobstore.record_run_ms_p50", median(record), "ms")
	r.set("jobstore.record_run_ms_p99", percentile(record, 99), "ms")
	r.set("jobstore.set_result_ms", median(tr.ms("replay/", "jobstore.set_result")), "ms")
	path := "replay/exec"
	if b.o.workload.cached {
		path = "replay/cached"
	}
	fsyncs := 0
	for name, n := range fsyncsPerCall {
		fsyncs += n * tr.count(path, name)
	}
	r.set("jobstore.fsyncs_per_run", float64(fsyncs)/runs, "fsync/run")

	// coord: ledger transitions from the replay, HTTP routes from the
	// in-process workers.
	r.set("coord.claim_ms_p50", median(tr.ms("dist/", "coord.claim")), "ms")
	publish := tr.ms("dist/", "coord.publish")
	r.set("coord.publish_ms_p50", median(publish), "ms")
	r.set("coord.publish_ms_p99", percentile(publish, 99), "ms")
	r.set("coord.renew_ms_p50", median(tr.ms("dist/", "coord.renew")), "ms")
	r.set("coord.complete_ms_p50", median(tr.ms("dist/", "coord.complete")), "ms")
	r.set("coord.wal_append_ms_p50", median(tr.ms("replay/coord", "coord.wal_append")), "ms")
	r.set("coord.requests_per_run", float64(dp.requests)/float64(dp.runs), "count/run")
	r.set("coord.retries", float64(dp.retries), "count")
	r.set("coord.worker_idle_share", dp.idleShare, "ratio")

	// processes, over the traced window and the simw probe job.
	r.set("simd.cpu_user_ms_per_run", msPer(w.simdCPU.user, w.runs), "ms")
	r.set("simd.cpu_sys_ms_per_run", msPer(w.simdCPU.sys, w.runs), "ms")
	r.set("simd.write_kb_per_run", float64(w.writeBytes)/1024/float64(w.runs), "KB")
	r.set("simd.gc_cpu_pct", 100*w.gcCPUMS/ms(w.simdCPU.total()), "%")
	r.set("simd.peak_rss_mb", median(rss), "MB")
	r.set("simw.cpu_ms_per_run", msPer(dp.simwCPU.total(), dp.simwRuns), "ms")
	r.set("simw.peak_rss_mb", float64(dp.simwPeakKB)/1024, "MB")

	// The trace itself: overhead against the untraced window, and the
	// per-run cost no layer call accounts for.
	perRun := median(took) / runs
	layers := (ms(rp.wall) + median(submit) + median(queue) + median(fetch)) / runs
	r.set("trace.overhead_pct", 100*(median(took)-median(plainTook))/median(plainTook), "%")
	r.set("trace.residual_ms_per_run", perRun-layers, "ms")

	spanFile := filepath.Join(b.o.out, fmt.Sprintf("spans-%s-seed%d.json", b.o.workload.name, b.o.seed))
	if err := tr.write(spanFile); err != nil {
		return err
	}
	r.say("perfbench %s seed %d (traced): %d runs per job; windows %.2f s untraced, %.2f s traced", b.o.workload.name, b.o.seed,
		b.o.workload.runs, plain.seconds(), w.seconds())
	r.say("jobs attempted %d succeeded %d failed %d", r.attempted, len(succeeded(measured)), r.failed)
	r.say("spans: %s (%d)", spanFile, len(tr.spans))
	r.say("per run: end to end %.4f ms = layer calls %.4f ms + residual %.4f ms", perRun, layers, perRun-layers)
	r.say("layer self time per run on the %s replay:", path)
	self := tr.selfByName(path)
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.say("  %-24s %10.4f ms", n, self[n]/runs)
	}
	var keys []string
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		note := ""
		if k == "jobstore.fsyncs_per_run" {
			note = "  (computed from calls)"
		}
		r.say("%-28s %14.4f %s%s", k, r.metrics[k].Value, r.metrics[k].Unit, note)
	}
	return nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
