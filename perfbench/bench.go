package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// setUp starts a fresh service and runs the warm-up job on it. The
// returned duration runs from exec until the warm-up report is
// fetched. The warm-up job is verified outside that time and returned
// with its report: the cached workload's measured jobs must equal it.
func (b *bench) setUp(ctx context.Context, gctrace bool) (*service, *twin, time.Duration, error) {
	t0 := time.Now()
	svc, err := b.startService(ctx, gctrace, b.o.workload.distributed)
	if err != nil {
		return nil, nil, 0, err
	}
	j, rep, err := b.runJob(ctx, svc, b.o.warmupSpec(), false)
	if err != nil {
		b.stopService(svc)
		return nil, nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	d := time.Since(t0)
	if !j.fetched.IsZero() {
		d = j.fetched.Sub(t0)
	}
	if rep != nil {
		verifyReport(j, rep)
	}
	b.checked = append(b.checked, j)
	b.logf("set up in %.3fs", d.Seconds())
	return svc, &twin{job: j, report: rep}, d, nil
}

// twin is a warm-up job and its report.
type twin struct {
	job    *jobRun
	report []byte
}

// maxSteal is the share of the machine's CPU time the hypervisor may
// take from this VM while a job runs before that job is set aside: its
// figures would measure the host, not the service.
const maxSteal = 0.05

// capFactor bounds how far a window may grow while it replaces jobs
// set aside for steal.
const capFactor = 1.25

// window is one measured window: consecutive jobs, one outstanding at
// a time, from the first submit to the last report fetched.
type window struct {
	jobs       []*jobRun
	start, end time.Time
	simdCPU    cpu
	simwCPU    cpu
	writeBytes int64   // simd's storage writes
	gcCPUMS    float64 // simd's GC CPU, when gctrace is on
	runs       int     // runs of every job in the window
	nSteady    int     // jobs with at most maxSteal of CPU time stolen
	first      []byte  // report of the first job, kept when traced
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// steady returns the verified jobs that ran while the hypervisor left
// the VM alone, or every verified job when fewer than minJobs did.
func (w *window) steady() []*jobRun {
	ok := succeeded(w.jobs)
	var steady []*jobRun
	for _, j := range ok {
		if j.steal <= maxSteal {
			steady = append(steady, j)
		}
	}
	if len(steady) < minJobs {
		return ok
	}
	return steady
}

// window measures jobs first, first+1, ... until the steady jobs
// (see maxSteal) span length seconds, or the window has grown to
// capFactor times that; it always holds at least minJobs jobs. Each
// job's span runs from its submit to the next job's submit, and its
// CPU and steal are read over that span.
//
// Reports are verified after the window, so the client's checking
// never sits between two jobs; the cached workload's reports are only
// compared with their twin, which is cheap, and not kept.
func (b *bench) window(ctx context.Context, svc *service, tw *twin, length float64, first int, traced bool) (*window, error) {
	simd0, simw0, io0, err := svc.counters()
	if err != nil {
		return nil, err
	}
	m0, err := svc.mark()
	if err != nil {
		return nil, err
	}
	w := &window{start: m0.at}
	var spans []float64
	var steady float64 // seconds of steady jobs
	var reports [][]byte
	for k := 0; ; k++ {
		est := median(spans)
		if k >= minJobs && (w.nSteady >= minJobs && steady+est > length || time.Since(w.start).Seconds()+est > capFactor*length) {
			break
		}
		j, rep, err := b.runJob(ctx, svc, b.o.measuredSpec(first+k), traced)
		if err != nil {
			return nil, err
		}
		m1, err := svc.mark()
		if err != nil {
			return nil, err
		}
		j.span, j.cpu, j.steal = m1.at.Sub(m0.at), m1.cpu-m0.cpu, m1.stealShare(m0)
		m0 = m1
		spans = append(spans, j.span.Seconds())
		if j.steal <= maxSteal {
			steady += j.span.Seconds()
			w.nSteady++
		}
		w.jobs = append(w.jobs, j)
		w.runs += j.spec.Normalize().Runs
		if traced && k == 0 {
			w.first = rep
		}
		if b.o.workload.cached {
			verifyTwin(j, rep, tw.job, tw.report)
			rep = nil
		}
		reports = append(reports, rep)
	}
	w.end = m0.at
	b.logf("window: %d jobs, %d steady", len(w.jobs), w.nSteady)
	simd1, simw1, io1, err := svc.counters()
	if err != nil {
		return nil, err
	}
	w.simdCPU, w.simwCPU, w.writeBytes = simd1.sub(simd0), simw1.sub(simw0), io1-io0
	if svc.simd.gc != nil {
		w.gcCPUMS = svc.simd.gc.cpuBetween(w.start, w.end)
	}
	for i, rep := range reports {
		if rep != nil {
			verifyReport(w.jobs[i], rep)
		}
		reports[i] = nil
	}
	b.checked = append(b.checked, w.jobs...)
	return w, nil
}

// mark is a reading taken between two jobs: the time, the CPU of every
// process under test, and the machine's CPU accounting.
type mark struct {
	at           time.Time
	cpu          time.Duration
	steal, total int64 // clock ticks from /proc/stat, all CPUs
}

func (svc *service) mark() (mark, error) {
	simd, simw, _, err := svc.counters()
	if err != nil {
		return mark{}, err
	}
	steal, total, err := machineTicks()
	return mark{at: time.Now(), cpu: simd.total() + simw.total(), steal: steal, total: total}, err
}

// stealShare is the share of the machine's CPU time the hypervisor
// took between m0 and m.
func (m mark) stealShare(m0 mark) float64 {
	if m.total <= m0.total {
		return 0
	}
	return float64(m.steal-m0.steal) / float64(m.total-m0.total)
}

// counters reads the CPU of simd and of all simw workers together, and
// simd's storage writes.
func (svc *service) counters() (simd, simw cpu, writeBytes int64, err error) {
	if simd, err = procCPU(svc.simd.pid); err != nil {
		return
	}
	for _, p := range svc.simws {
		c, e := procCPU(p.pid)
		if e != nil {
			return simd, simw, 0, e
		}
		simw.user += c.user
		simw.sys += c.sys
	}
	writeBytes, err = procWriteBytes(svc.simd.pid)
	return
}

// untraced is the run that yields the end-to-end metrics.
func (b *bench) untraced(ctx context.Context) error {
	var setup []float64
	var svc *service
	var tw *twin
	for s := 0; s < setups; s++ {
		if svc != nil {
			b.stopService(svc)
		}
		var d time.Duration
		var err error
		if svc, tw, d, err = b.setUp(ctx, false); err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
	}
	w, err := b.window(ctx, svc, tw, b.o.seconds, 0, false)
	b.stopService(svc)
	if err != nil {
		return err
	}
	b.logf("stopped")
	if err := checkDirect(ctx, b.checked); err != nil {
		return err
	}
	b.logf("direct runs checked")
	r := b.res
	b.tally(w.jobs)
	ok := succeeded(w.jobs)
	steady := w.steady()
	var took, rss, steal []float64
	var span, cpuTime time.Duration
	runs := 0
	for _, j := range steady {
		took = append(took, j.duration().Seconds())
		span += j.span
		cpuTime += j.cpu
		runs += j.spec.Normalize().Runs
	}
	for _, j := range w.jobs {
		rss = append(rss, float64(j.peakRSSKB)/1024)
		steal = append(steal, 100*j.steal)
	}
	r.set("runs_per_s", float64(runs)/span.Seconds(), "1/s")
	r.set("job_p50_s", median(took), "s")
	r.set("cpu_ms_per_run", msPer(cpuTime, runs), "ms")
	r.set("setup_s", median(setup), "s")

	r.say("perfbench %s seed %d: %d runs per job, window %.2f s", b.o.workload.name, b.o.seed, b.o.workload.runs, w.seconds())
	r.say("jobs attempted %d succeeded %d failed %d; metrics over %d of them (%d steady: at most %.0f%% of CPU time stolen; all count when fewer than %d are)",
		r.attempted, len(ok), r.failed, len(steady), w.nSteady, 100*maxSteal, minJobs)
	r.say("runs_per_s      %10.3f 1/s  (%d runs in %.2f s of steady jobs)", r.metrics["runs_per_s"].Value, runs, span.Seconds())
	r.say("job_p50_s       %10.4f s    (n=%d%s)", r.metrics["job_p50_s"].Value, len(took), tail(took))
	r.say("cpu_ms_per_run  %10.4f ms   (simd and simw)", r.metrics["cpu_ms_per_run"].Value)
	r.say("setup_s         %10.4f s    (median of %d set-ups: %s)", r.metrics["setup_s"].Value, len(setup), fmtList(setup))
	r.say("simd peak RSS   %10.2f MB   (median of per-job VmHWM, n=%d; a per-layer metric, see README)", median(rss), len(rss))
	r.say("per job: seconds %s", fmtList(durations(w.jobs)))
	r.say("per job: %% of CPU time stolen %s", fmtList(steal))
	r.say("per job: simd peak RSS MB %s", fmtList(rss))
	return nil
}

func durations(jobs []*jobRun) []float64 {
	var v []float64
	for _, j := range jobs {
		v = append(v, j.duration().Seconds())
	}
	return v
}

// tally counts the measured jobs and collects every verification
// problem of the run, warm-up jobs included.
func (b *bench) tally(measured []*jobRun) {
	b.res.attempted = len(measured)
	for _, j := range measured {
		if len(j.problems) > 0 {
			b.res.failed++
		}
	}
	fallbacks := 0
	for _, j := range b.checked {
		b.res.problems = append(b.res.problems, j.problems...)
		fallbacks += j.fallbacks
	}
	for _, p := range b.res.problems {
		b.res.say("FAILED %s", p)
	}
	if fallbacks > 0 {
		b.res.say("note: %d events streams ended before the terminal transition; those jobs were finished by polling", fallbacks)
	}
}

func succeeded(jobs []*jobRun) []*jobRun {
	var ok []*jobRun
	for _, j := range jobs {
		if len(j.problems) == 0 {
			ok = append(ok, j)
		}
	}
	return ok
}

// tail names the highest of p75/p90/p99 with at least ten samples
// beyond it, or says that none has.
func tail(v []float64) string {
	for _, p := range []float64{99, 90, 75} {
		if float64(len(v))*(1-p/100) >= 10 {
			return fmt.Sprintf(", p%.0f %.4f", p, percentile(v, p))
		}
	}
	return "; no tail percentile: fewer than 10 jobs beyond p75"
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between closest ranks; it is 0 for
// an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

func fmtList(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
