package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/sim"
)

// probeHeader marks the renew requests the probe itself sends, so they
// are timed but not counted as the workers' own requests.
const probeHeader = "X-Perfbench-Probe"

// distOut is what the distributed probe measured besides its spans.
type distOut struct {
	jobs       []*jobRun
	simwCPU    cpu // both simw processes over their job
	simwRuns   int
	simwPeakKB int64 // the larger simw VmHWM over that job
	requests   int   // requests the in-process workers sent during their job
	retries    int   // attempts during the job that failed and were retried
	runs       int
	idleShare  float64
}

// distProbe runs the workload's job shape as a distributed job twice on
// a fresh simd: once on two simw processes, for their CPU and memory,
// and once on two in-process coord.Workers whose HTTP clients record a
// span per request, for the claim protocol's per-route latencies. The
// workers are configured like the simw processes (one sweep worker,
// eight indices per claim, simwPoll). Before the first publish
// of each claim a probe renews that claim once, as the heartbeat does
// on claims that outlive a third of the lease.
func (b *bench) distProbe(ctx context.Context, tr *tracer) (*distOut, error) {
	svc, err := b.startService(ctx, false, true)
	if err != nil {
		return nil, err
	}
	defer b.stopService(svc)
	out := &distOut{}
	spec := func(k int) sim.JobSpec {
		sp := b.o.spec(k)
		sp.Distributed = true
		return sp
	}

	c0, err := svc.simwCPU()
	if err != nil {
		return nil, err
	}
	for _, p := range svc.simws {
		if err := clearPeak(p.pid); err != nil {
			return nil, err
		}
	}
	j, err := b.probeJob(ctx, svc, spec(1<<12))
	if err != nil {
		return nil, err
	}
	c1, err := svc.simwCPU()
	if err != nil {
		return nil, err
	}
	out.simwCPU, out.simwRuns = c1.sub(c0), j.spec.Runs
	for _, p := range svc.simws {
		kb, err := procStatusKB(p.pid, "VmHWM")
		if err != nil {
			return nil, err
		}
		out.simwPeakKB = max(out.simwPeakKB, kb)
		b.stop(p)
	}
	svc.simws = nil
	out.jobs = append(out.jobs, j)

	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var recs []*recorder
	for i := 0; i < 2; i++ {
		rec := &recorder{next: http.DefaultTransport, tr: tr, base: svc.base}
		rec.client = &http.Client{Transport: rec}
		recs = append(recs, rec)
		w := &coord.Worker{
			Base:          svc.base,
			Name:          fmt.Sprintf("p%d", i+1),
			Max:           8,
			SweepWorkers:  1,
			Poll:          simwPoll,
			Client:        rec.client,
			BeforePublish: rec.beforePublish,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx) // returns once wctx is canceled
		}()
	}
	j, err = b.probeJob(ctx, svc, spec(1<<12+1))
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	out.jobs = append(out.jobs, j)
	out.runs = j.spec.Runs
	var busy time.Duration
	for _, rec := range recs {
		n, retries, held := rec.during(j.submit, j.terminal)
		out.requests += n
		out.retries += retries
		busy += held
	}
	out.idleShare = 1 - busy.Seconds()/(2*j.terminal.Sub(j.submit).Seconds())
	return out, nil
}

// probeJob runs one job and verifies its report.
func (b *bench) probeJob(ctx context.Context, svc *service, sp sim.JobSpec) (*jobRun, error) {
	j, rep, err := b.runJob(ctx, svc, sp, false)
	if err != nil {
		return nil, err
	}
	if rep != nil {
		verifyReport(j, rep)
	}
	b.checked = append(b.checked, j)
	return j, nil
}

func (svc *service) simwCPU() (cpu, error) {
	_, c, _, err := svc.counters()
	return c, err
}

// recorder is an http.RoundTripper that records one span per request,
// named after the claim protocol's route, and follows the worker's
// claims.
type recorder struct {
	next   http.RoundTripper
	tr     *tracer
	base   string
	client *http.Client // this recorder's own client, for probe renews

	mu     sync.Mutex
	reqs   []request
	claims []*claimSpan
}

type request struct {
	start  time.Time
	probe  bool
	failed bool // transport error or 5xx: the worker retries
}

type claimSpan struct {
	job, id    string
	start, end int // indices [start, end)
	from, to   time.Time
	renewed    bool
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	route, job, claim := classify(req)
	t0 := time.Now()
	resp, err := r.next.RoundTrip(req)
	var body []byte
	if err == nil && route == "coord.claim" && resp.StatusCode == http.StatusOK {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	t1 := time.Now()
	r.tr.add("dist/"+job, 0, route, t0, t1)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs = append(r.reqs, request{start: t0, probe: req.Header.Get(probeHeader) != "", failed: err != nil || resp.StatusCode >= 500})
	if err != nil {
		return nil, err
	}
	switch {
	case body != nil:
		var cl coord.ClaimResponse
		if json.Unmarshal(body, &cl) == nil {
			r.claims = append(r.claims, &claimSpan{job: cl.Job, id: cl.ClaimID, start: cl.Start, end: cl.End, from: t0})
		}
	case route == "coord.complete":
		for _, c := range r.claims {
			if c.id == claim && c.job == job {
				c.to = t1
			}
		}
	}
	return resp, nil
}

// beforePublish marks each publish and renews each claim once, before
// its first publish.
func (r *recorder) beforePublish(job string, index int) error {
	now := time.Now()
	r.tr.add("dist/"+job, 0, "coord.before_publish", now, now)
	var renew string
	r.mu.Lock()
	for _, c := range r.claims {
		if c.job == job && index >= c.start && index < c.end && c.to.IsZero() && !c.renewed {
			c.renewed, renew = true, c.id
		}
	}
	r.mu.Unlock()
	if renew == "" {
		return nil
	}
	req, err := http.NewRequest(http.MethodPost, r.base+"/v1/jobs/"+job+"/claims/"+renew+"/renew", nil)
	if err != nil {
		return err
	}
	req.Header.Set(probeHeader, "1")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil // the worker's own heartbeat decides what a failed renew means
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// during reports the worker's requests started in [from, to], those of
// them that failed, and the time its claims were held.
func (r *recorder) during(from, to time.Time) (requests, retries int, busy time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.reqs {
		if q.start.Before(from) || q.start.After(to) {
			continue
		}
		if q.failed {
			retries++
		}
		if !q.probe {
			requests++
		}
	}
	for _, c := range r.claims {
		end := c.to
		if end.IsZero() || end.After(to) {
			end = to
		}
		if !c.from.Before(from) {
			busy += end.Sub(c.from)
		}
	}
	return
}

// classify names a worker request after its route and extracts the job
// and claim it addresses.
func classify(req *http.Request) (route, job, claim string) {
	p := strings.Split(strings.Trim(req.URL.Path, "/"), "/") // v1 jobs {id} ...
	switch {
	case len(p) == 2 && p[1] == "work":
		return "coord.work", "-", ""
	case len(p) == 2 && p[1] == "version":
		return "coord.version", "-", ""
	case len(p) >= 4 && p[1] == "jobs" && p[3] == "claims":
		job = p[2]
		switch {
		case len(p) == 4:
			return "coord.claim", job, ""
		case len(p) == 6:
			return "coord." + p[5], job, p[4]
		}
	case len(p) >= 5 && p[1] == "jobs" && p[3] == "runs":
		if len(p) == 6 {
			return "coord.failed", p[2], req.URL.Query().Get("claim")
		}
		return "coord.publish", p[2], req.URL.Query().Get("claim")
	}
	return "coord.other", "-", ""
}
