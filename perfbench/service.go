package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/sim"
)

// simwPoll is the idle poll interval passed to simw: far below the
// length of a job, so a fresh job waits at most this long for workers.
const simwPoll = 10 * time.Millisecond

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture the service runs on).
const clockTick = 10 * time.Millisecond

// proc is one process under test.
type proc struct {
	cmd  *exec.Cmd
	pid  int
	done chan struct{} // closed once the process has been waited for
	gc   *gcLog        // non-nil when started with GODEBUG=gctrace=1
}

// service is one set-up of the system under test: simd on a fresh
// store, plus its simw workers for the distributed workload.
type service struct {
	simd  *proc
	simws []*proc
	base  string
	store string
	ctl   *http.Client // submits and fetches reports
	ev    *http.Client // holds the events stream
}

// bench holds the state of one benchmark run.
type bench struct {
	o       options
	work    string
	res     *result
	procs   []*proc // every process started, for stopAll
	t0      time.Time
	stores  int
	checked []*jobRun // jobs whose sampled run is re-run directly
}

func (b *bench) start(name, bin string, args []string, gctrace bool) (*proc, <-chan string, error) {
	cmd := exec.Command(filepath.Join(b.o.bin, bin), args...)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	// A benchmark killed outright must not leave the service running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	var stderr io.ReadCloser
	if gctrace {
		if stderr, err = cmd.StderrPipe(); err != nil {
			return nil, nil, err
		}
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{cmd: cmd, pid: cmd.Process.Pid, done: make(chan struct{})}
	b.procs = append(b.procs, p)

	// The first stdout line goes to the caller (simd prints its listen
	// address there); the rest is drained. Wait runs only after every
	// pipe reader has hit EOF.
	first := make(chan string, 1)
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n')
		first <- strings.TrimSpace(line)
		_, _ = io.Copy(io.Discard, r)
	}()
	if stderr != nil {
		p.gc = &gcLog{}
		readers.Add(1)
		go func() {
			defer readers.Done()
			p.gc.read(stderr)
		}()
	}
	go func() {
		readers.Wait()
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, first, nil
}

// stop ends a process: SIGTERM, then SIGKILL if it has not exited in
// time, and waits for it either way.
func (b *bench) stop(p *proc) {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// logf reports progress on standard error, stamped with the time since
// the run started.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %7.2fs: %s\n", time.Since(b.t0).Seconds(), fmt.Sprintf(format, args...))
}

func (b *bench) stopAll() {
	for _, p := range b.procs {
		b.stop(p)
	}
}

func (b *bench) stopService(svc *service) {
	for _, p := range svc.simws {
		b.stop(p)
	}
	b.stop(svc.simd)
	svc.ctl.CloseIdleConnections()
	svc.ev.CloseIdleConnections()
	_ = os.RemoveAll(svc.store)
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// startService starts simd on a fresh store, waits until it answers
// healthz, and starts the simw workers when the workload is
// distributed (withWorkers) — the warm-up job proves they poll.
func (b *bench) startService(ctx context.Context, gctrace, withWorkers bool) (*service, error) {
	b.stores++
	store := filepath.Join(b.work, fmt.Sprintf("store%d", b.stores))
	simd, out, err := b.start("simd", "simd", []string{"-addr", "127.0.0.1:0", "-store", store}, gctrace)
	if err != nil {
		return nil, err
	}
	var line string
	select {
	case line = <-out:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("simd printed no listen address within 30s")
	}
	const prefix = "simd listening on "
	if !strings.HasPrefix(line, prefix) {
		return nil, fmt.Errorf("simd: unexpected first line %q", line)
	}
	addr, _, _ := strings.Cut(strings.TrimPrefix(line, prefix), " ")
	svc := &service{simd: simd, base: "http://" + addr, store: store, ctl: newHTTPClient(), ev: newHTTPClient()}
	if err := svc.awaitHealthy(ctx); err != nil {
		return nil, err
	}
	if withWorkers {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("w%d", i+1)
			w, _, err := b.start("simw", "simw", []string{
				"-server", svc.base, "-name", name, "-sweep-workers", "1", "-poll", simwPoll.String(),
			}, false)
			if err != nil {
				return nil, err
			}
			svc.simws = append(svc.simws, w)
		}
	}
	return svc, nil
}

func (svc *service) awaitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, svc.base+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := svc.ctl.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("simd at %s not healthy after 30s (last error %v)", svc.base, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// jobRun is one service job as the client saw it.
type jobRun struct {
	spec  sim.JobSpec
	id    string
	state string

	submit, submitted time.Time // POST sent, POST answered
	running           time.Time // running transition received
	firstRun, lastRun time.Time // first run event, last run_finished received
	terminal          time.Time // terminal transition received
	fetchStart        time.Time
	fetched           time.Time // report fully read

	serverQueue time.Duration // created → running on simd's clock (traced runs)
	peakRSSKB   int64         // simd VmHWM over the job
	span        time.Duration // submit to the next job's submit
	cpu         time.Duration // simd and simw CPU over the span
	steal       float64       // share of the machine's CPU time stolen over the span
	sampleIdx   int
	sample      []byte // result bytes of run sampleIdx, re-run directly later
	problems    []string
	fallbacks   int // times the events stream ended without a terminal state
}

func (j *jobRun) duration() time.Duration { return j.fetched.Sub(j.submit) }

func (j *jobRun) failf(format string, args ...any) {
	j.problems = append(j.problems, fmt.Sprintf("job %s (seed %d): ", j.id, j.spec.Seed)+fmt.Sprintf(format, args...))
}

// runJob submits one job, follows its events stream to the terminal
// transition and fetches the merged report, which it returns for the
// caller to verify. A job that does not end done is marked failed and
// has no report.
func (b *bench) runJob(ctx context.Context, svc *service, sp sim.JobSpec, traced bool) (*jobRun, []byte, error) {
	j := &jobRun{spec: sp}
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, nil, err
	}
	// Reset simd's peak RSS so VmHWM covers this job alone.
	if err := clearPeak(svc.simd.pid); err != nil {
		return nil, nil, fmt.Errorf("resetting simd peak RSS: %w", err)
	}

	j.submit = time.Now()
	status, resp, err := svc.call(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return nil, nil, err
	}
	j.submitted = time.Now()
	if status != http.StatusAccepted {
		return nil, nil, fmt.Errorf("submit: status %d: %s", status, clip(resp))
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &view); err != nil {
		return nil, nil, fmt.Errorf("submit: %w", err)
	}
	j.id = view.ID

	if err := svc.follow(ctx, j); err != nil {
		return nil, nil, err
	}
	if j.state != "done" {
		j.failf("ended %s", j.state)
		return j, nil, nil
	}
	j.fetchStart = time.Now()
	status, report, err := svc.call(ctx, http.MethodGet, "/v1/jobs/"+j.id+"/result", nil)
	if err != nil {
		return nil, nil, err
	}
	j.fetched = time.Now()
	if status != http.StatusOK {
		j.failf("result: status %d: %s", status, clip(report))
		return j, nil, nil
	}
	if j.peakRSSKB, err = procStatusKB(svc.simd.pid, "VmHWM"); err != nil {
		return nil, nil, err
	}
	if traced {
		if err := svc.serverTimes(ctx, j); err != nil {
			return nil, nil, err
		}
	}
	return j, report, nil
}

// follow reads the job's events stream until its terminal transition,
// stamping each lifecycle step as it arrives. Completion comes from the
// stream, never from polling; a stream that ends early (simd drops
// events for a slow reader) falls back to polling the job, and the
// fallback is counted.
func (svc *service) follow(ctx context.Context, j *jobRun) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, svc.base+"/v1/jobs/"+j.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := svc.ev.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		now := time.Now()
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		switch ev.Type {
		case "transition":
			switch ev.State {
			case "running":
				if j.running.IsZero() {
					j.running = now
				}
			case "done", "failed", "canceled":
				j.state, j.terminal = ev.State, now
				return nil
			}
		case "run_started", "run_finished":
			if j.firstRun.IsZero() {
				j.firstRun = now
			}
			if ev.Type == "run_finished" {
				j.lastRun = now
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	j.fallbacks++
	for {
		var v struct {
			State string `json:"state"`
		}
		status, data, err := svc.call(ctx, http.MethodGet, "/v1/jobs/"+j.id, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK || json.Unmarshal(data, &v) != nil {
			return fmt.Errorf("job %s: status %d: %s", j.id, status, clip(data))
		}
		switch v.State {
		case "done", "failed", "canceled":
			j.state, j.terminal = v.State, time.Now()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// serverTimes reads the job's durable transition history, whose
// timestamps come from simd's clock, for the queue wait.
func (svc *service) serverTimes(ctx context.Context, j *jobRun) error {
	status, data, err := svc.call(ctx, http.MethodGet, "/v1/jobs/"+j.id, nil)
	if err != nil {
		return err
	}
	var v struct {
		Transitions []struct {
			Time time.Time `json:"time"`
			To   string    `json:"to"`
		} `json:"transitions"`
	}
	if status != http.StatusOK || json.Unmarshal(data, &v) != nil {
		return fmt.Errorf("job %s: status %d: %s", j.id, status, clip(data))
	}
	var created time.Time
	for _, t := range v.Transitions {
		switch {
		case t.To == "queued" && created.IsZero():
			created = t.Time
		case t.To == "running":
			j.serverQueue = t.Time.Sub(created)
			return nil
		}
	}
	return fmt.Errorf("job %s: no running transition in its history", j.id)
}

func (svc *service) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, svc.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := svc.ctl.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return strings.TrimSpace(string(b))
}

// cpu is a process's CPU time split into user and system.
type cpu struct{ user, sys time.Duration }

func (c cpu) total() time.Duration { return c.user + c.sys }

func (c cpu) sub(d cpu) cpu { return cpu{c.user - d.user, c.sys - d.sys} }

// procCPU reads utime and stime from /proc/<pid>/stat.
func procCPU(pid int) (cpu, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpu{}, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from its closing parenthesis. utime and stime are fields
	// 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return cpu{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return cpu{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpu{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	return cpu{time.Duration(u) * clockTick, time.Duration(s) * clockTick}, nil
}

// machineTicks reads the steal ticks and the total ticks of all CPUs
// from the first line of /proc/stat.
func machineTicks() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...; guest
	// time is already counted in user.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: malformed")
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return steal, total, nil
}

// clearPeak resets a process's peak RSS (VmHWM) to its current RSS.
func clearPeak(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procStatusKB reads one kB-valued field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (int64, error) {
	return procField(fmt.Sprintf("/proc/%d/status", pid), field+":")
}

// procWriteBytes reads the bytes a process caused to be written to
// storage, from /proc/<pid>/io.
func procWriteBytes(pid int) (int64, error) {
	return procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes:")
}

func procField(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// gcLog collects simd's GODEBUG=gctrace=1 lines: the arrival time and
// the CPU milliseconds of each collection.
type gcLog struct {
	mu     sync.Mutex
	cycles []gcCycle
}

type gcCycle struct {
	at    time.Time
	cpuMS float64
}

// read parses lines such as
//
//	gc 7 @1.203s 2%: 0.021+1.4+0.003 ms clock, 0.043+0.2/1.1/0.9+0.007 ms cpu, ...
//
// summing every term of the "ms cpu" group.
func (g *gcLog) read(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		_, rest, ok := strings.Cut(line, " ms clock, ")
		if !ok {
			continue
		}
		terms, _, ok := strings.Cut(rest, " ms cpu")
		if !ok {
			continue
		}
		var sum float64
		for _, t := range strings.FieldsFunc(terms, func(r rune) bool { return r == '+' || r == '/' }) {
			v, err := strconv.ParseFloat(t, 64)
			if err == nil {
				sum += v
			}
		}
		g.mu.Lock()
		g.cycles = append(g.cycles, gcCycle{at: time.Now(), cpuMS: sum})
		g.mu.Unlock()
	}
}

// cpuBetween sums the GC CPU of collections logged in [from, to].
func (g *gcLog) cpuBetween(from, to time.Time) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var sum float64
	for _, c := range g.cycles {
		if !c.at.Before(from) && !c.at.After(to) {
			sum += c.cpuMS
		}
	}
	return sum
}
