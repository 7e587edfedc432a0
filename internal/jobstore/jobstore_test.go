package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLifecycleAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := json.RawMessage(`{"scenario":"baseline-f3","runs":4}`)
	j, err := s.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Queued {
		t.Fatalf("created job in %q, want queued", j.State)
	}
	if _, err := s.Transition(j.ID, Running, "picked up"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 0, "key0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 2, "key2"); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-record (resume discovering a cached result).
	if err := s.RecordRun(j.ID, 2, "key2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Done, "all runs merged"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetResult(j.ID, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must replay identically.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(j.ID)
	if !ok {
		t.Fatal("job lost on reopen")
	}
	if got.State != Done {
		t.Errorf("replayed state %q, want done", got.State)
	}
	if want := []int{0, 2}; !reflect.DeepEqual(got.CompletedIndices(), want) {
		t.Errorf("replayed runs %v, want %v", got.CompletedIndices(), want)
	}
	if got.Runs[2] != "key2" {
		t.Errorf("replayed run key %q, want key2", got.Runs[2])
	}
	if len(got.Events) != 3 {
		t.Errorf("replayed %d events, want 3", len(got.Events))
	}
	for i, ev := range got.Events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	res, err := s2.Result(j.ID)
	if err != nil || string(res) != `{"ok":true}` {
		t.Errorf("replayed result %q (%v)", res, err)
	}
}

func TestIllegalTransitionsRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Done, ""); err == nil {
		t.Error("queued→done allowed")
	}
	if _, err := s.Transition(j.ID, Running, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Queued, "drain"); err != nil {
		t.Errorf("running→queued (requeue) rejected: %v", err)
	}
	if _, err := s.Transition(j.ID, Canceled, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, ""); err == nil {
		t.Error("transition out of terminal state allowed")
	}
}

// TestCrashRecoveryTruncatedLog simulates a crash mid-append: the last
// log line is cut in half. Reopening must discard the torn tail and
// resume from the last durable event.
func TestCrashRecoveryTruncatedLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, "picked up"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 0, "k0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 1, "k1"); err != nil {
		t.Fatal(err)
	}

	// Tear the tail off both append-only files.
	logPath := filepath.Join(dir, "jobs", j.ID, "log.ndjson")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(raw, []byte(`{"seq":3,"time":"2026-08-08T12:`)...)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	runsPath := filepath.Join(dir, "jobs", j.ID, "runs.ndjson")
	rr, err := os.ReadFile(runsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runsPath, append(rr, []byte(`{"index":2,"ke`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn writes: %v", err)
	}
	got, ok := s2.Get(j.ID)
	if !ok {
		t.Fatal("job lost")
	}
	if got.State != Running {
		t.Errorf("state %q after torn tail, want running (last durable)", got.State)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(got.CompletedIndices(), want) {
		t.Errorf("completed %v, want %v (torn record dropped)", got.CompletedIndices(), want)
	}

	// The requeue edge lets the recovered job resume.
	if _, err := s2.Transition(j.ID, Queued, "recovered after restart"); err != nil {
		t.Fatal(err)
	}
	got, _ = s2.Get(j.ID)
	if got.State != Queued {
		t.Errorf("state %q, want queued", got.State)
	}
	// And the next transition continues the durable sequence.
	if got.Events[len(got.Events)-1].Seq != 3 {
		t.Errorf("recovery event seq %d, want 3", got.Events[len(got.Events)-1].Seq)
	}
}

// TestAppendAfterTornTailStaysClean pins the tail-repair contract: a
// torn final line must be truncated on replay, so the next append lands
// on a clean line boundary. Without the repair, the new record fuses
// with the partial one and the SECOND reopen reads it as mid-file
// corruption — a resumable store that silently becomes unrecoverable
// one restart later.
func TestAppendAfterTornTailStaysClean(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, "picked up"); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "jobs", j.ID, "log.ndjson")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: partial JSON, no trailing newline.
	if err := os.WriteFile(logPath, append(raw, []byte(`{"seq":3,"ti`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Transition(j.ID, Queued, "recovered"); err != nil {
		t.Fatal(err)
	}
	// The restart after the restart: the log must still replay cleanly.
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("second reopen after post-torn append: %v", err)
	}
	got, ok := s3.Get(j.ID)
	if !ok {
		t.Fatal("job lost")
	}
	if got.State != Queued {
		t.Errorf("state %q, want queued", got.State)
	}
	if got.Events[len(got.Events)-1].Seq != 3 {
		t.Errorf("last seq %d, want 3", got.Events[len(got.Events)-1].Seq)
	}
}

// TestMidFileCorruptionFails distinguishes a torn tail (recoverable)
// from corruption with durable successors (not recoverable silently).
func TestMidFileCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, ""); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "jobs", j.ID, "log.ndjson")
	raw, _ := os.ReadFile(logPath)
	lines := strings.SplitAfter(string(raw), "\n")
	lines[0] = "garbage not json\n"
	if err := os.WriteFile(logPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("mid-file corruption replayed silently")
	}
}

// TestConcurrentClaimExactlyOneWinner is the claim race at the store
// level: after a lease expires, every replacement worker observes the
// job requeued and races to pick it up. The transition log is the
// arbiter — queued→running is legal exactly once, so exactly one
// claimant wins and the losers get the illegal-transition error
// instead of a duplicate lease.
func TestConcurrentClaimExactlyOneWinner(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":4}`))
	if err != nil {
		t.Fatal(err)
	}
	const claimants = 8
	var wins atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < claimants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := s.Transition(j.ID, Running, fmt.Sprintf("claimed by w%d", g)); err == nil {
				wins.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if got := wins.Load(); got != 1 {
		t.Fatalf("%d claimants won the queued→running race, want exactly 1", got)
	}
	got, _ := s.Get(j.ID)
	if got.State != Running {
		t.Fatalf("state %q after claim race, want running", got.State)
	}
	if len(got.Events) != 2 {
		t.Fatalf("%d events after claim race, want 2 (create + single claim)", len(got.Events))
	}
}

// TestConcurrentRequeueAndDuplicatePublish distills the lease-expiry
// race end to end: a zombie worker keeps publishing run records after
// its lease lapsed while the coordinator requeues the job and a
// replacement re-publishes the same indices. RecordRun's idempotence is
// the healing contract — the replacement's cache probe re-records
// indices the zombie already landed, and exactly one record per index
// must be durable. The requeue/finish transition race must likewise
// resolve to exactly one winner.
func TestConcurrentRequeueAndDuplicatePublish(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":16}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, "claimed"); err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	// Zombie and replacement both publish every index; the cache key is
	// content-addressed so both carry the same key for a given index.
	for _, who := range []string{"zombie", "replacement"} {
		wg.Add(1)
		go func(who string) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := s.RecordRun(j.ID, i, fmt.Sprintf("key%d", i)); err != nil {
					t.Errorf("%s record %d: %v", who, i, err)
				}
			}
		}(who)
	}
	// Meanwhile the requeue edge (coordinator drain) races the finish
	// edge (sweep completed): running admits both, but taking either
	// leaves a state from which the other is illegal.
	var transitions atomic.Int64
	for _, to := range []State{Queued, Done} {
		wg.Add(1)
		go func(to State) {
			defer wg.Done()
			if _, err := s.Transition(j.ID, to, "race"); err == nil {
				transitions.Add(1)
			}
		}(to)
	}
	wg.Wait()
	if got := transitions.Load(); got != 1 {
		t.Fatalf("%d transition winners for requeue-vs-finish, want exactly 1", got)
	}

	// Exactly-once on disk: reopen and count one durable record per
	// index, with the runs.ndjson line count matching (no duplicate
	// appends hidden behind the in-memory dedup).
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s2.Get(j.ID)
	if len(got.Runs) != n {
		t.Fatalf("replayed %d run records, want %d", len(got.Runs), n)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "jobs", j.ID, "runs.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != n {
		t.Fatalf("runs.ndjson holds %d lines, want %d — a duplicate publish reached disk", lines, n)
	}
	// If the requeue edge won, the healed job must still resume: its
	// checkpoint already covers every index.
	if got.State == Queued {
		if want := n; len(got.CompletedIndices()) != want {
			t.Fatalf("requeued job lost checkpoint: %d indices", len(got.CompletedIndices()))
		}
	}
}

func TestIDsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Create(json.RawMessage(`{}`))
	b, _ := s.Create(json.RawMessage(`{}`))
	if a.ID == b.ID {
		t.Fatal("duplicate IDs")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s2.Create(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID || c.ID == b.ID {
		t.Errorf("reopened store reissued ID %s", c.ID)
	}
	if got := s2.List(); len(got) != 3 || got[0].ID != a.ID || got[2].ID != c.ID {
		ids := make([]string, len(got))
		for i, j := range got {
			ids[i] = j.ID
		}
		t.Errorf("List order %v", ids)
	}
}

// TestRecordRunsTornBatchTruncated cuts a multi-record append inside
// its second record: reopening keeps the whole first record, truncates
// the rest, and a later batch appends cleanly after it.
func TestRecordRunsTornBatchTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":3}`))
	if err != nil {
		t.Fatal(err)
	}
	batch := []RunRecord{{0, "k0"}, {1, "k1"}, {2, "k2"}}
	if err := s.RecordRuns(j.ID, batch); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs", j.ID, "runs.ndjson")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("batch wrote %q, want 3 newline-terminated records", raw)
	}
	first := len(lines[0])
	if err := os.Truncate(path, int64(first+len(lines[1])/2)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s2.Get(j.ID)
	if want := []int{0}; !reflect.DeepEqual(got.CompletedIndices(), want) {
		t.Errorf("after torn batch: runs %v, want %v", got.CompletedIndices(), want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(first) {
		t.Errorf("torn tail not truncated to the record boundary (%v, %v)", fi, err)
	}
	// The resume re-promotes the whole batch; index 0 is not repeated.
	if err := s2.RecordRuns(j.ID, batch); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = s3.Get(j.ID)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got.CompletedIndices(), want) {
		t.Errorf("after re-promotion: runs %v, want %v", got.CompletedIndices(), want)
	}
	if raw, _ := os.ReadFile(path); strings.Count(string(raw), "\n") != 3 {
		t.Errorf("checkpoint log %q, want each index once", raw)
	}
}

// TestRecordRunsSkipsDuplicates: indices already recorded, or repeated
// within one batch, are written once.
func TestRecordRunsSkipsDuplicates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 1, "k1"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRuns(j.ID, []RunRecord{{1, "k1"}, {2, "k2"}, {2, "k2"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRuns(j.ID, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "jobs", j.ID, "runs.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"index\":1,\"key\":\"k1\"}\n{\"index\":2,\"key\":\"k2\"}\n"; string(raw) != want {
		t.Errorf("checkpoint log %q, want %q", raw, want)
	}
}

// TestWriteResultStreamsAtomically: a streamed document lands whole; a
// writer that fails leaves the previous document and no temp file.
func TestWriteResultStreamsAtomically(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenResult(j.ID); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("OpenResult before any write: %v, want ErrNotExist", err)
	}
	big := strings.Repeat("x", 3<<20)
	err = s.WriteResult(j.ID, func(w io.Writer) error {
		for _, part := range []string{`{"a":"`, big, `"}`} {
			if _, err := io.WriteString(w, part); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":"` + big + `"}`
	boom := errors.New("boom")
	err = s.WriteResult(j.ID, func(w io.Writer) error {
		_, _ = io.WriteString(w, "partial") // the failure under test is boom
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("failed write returned %v, want it wrapped", err)
	}
	if got, err := s.Result(j.ID); err != nil || string(got) != want {
		t.Errorf("result after a failed rewrite: %d bytes (%v), want the earlier %d", len(got), err, len(want))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "jobs", j.ID, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	if err := s.WriteResult("j999999", func(io.Writer) error { return nil }); err == nil {
		t.Error("WriteResult accepted an unknown job")
	}
}
