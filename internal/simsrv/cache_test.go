package simsrv

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/sim"
)

// damages are the ways an entry on disk can go bad. Each maps the
// entry file's bytes (digest line + payload) to the damaged bytes.
var damages = map[string]func(raw []byte) []byte{
	"flipped-payload-byte": func(raw []byte) []byte {
		out := bytes.Clone(raw)
		out[len(out)/2+entryHeaderLen/2] ^= 0x01
		return out
	},
	"flipped-digest-byte": func(raw []byte) []byte {
		out := bytes.Clone(raw)
		out[len(entryTag)+3] ^= 0x01
		return out
	},
	"truncated":     func(raw []byte) []byte { return raw[:len(raw)-7] },
	"header-only":   func(raw []byte) []byte { return raw[:entryHeaderLen] },
	"empty":         func(raw []byte) []byte { return nil },
	"legacy-entry":  func(raw []byte) []byte { return raw[entryHeaderLen:] },
	"digest-no-tag": func(raw []byte) []byte { return append([]byte("sha512:"), raw[len(entryTag):]...) },
}

func TestCacheGetRejectsDamagedEntries(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"result":"<ok>","values":[1,2,3]}`)
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			key := "ab" + name
			if err := c.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			got, ok := c.Get(key)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("intact entry: Get = %q, %v", got, ok)
			}
			raw, err := os.ReadFile(c.path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.path(key), damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(key); ok {
				t.Errorf("damaged entry read as a hit: %q", got)
			}
		})
	}
	if _, ok := c.Get("abmissing"); ok {
		t.Error("absent key read as a hit")
	}
}

// entryFiles stats the cache entry of every run of spec.
func entryFiles(t *testing.T, c *Cache, sp JobSpec) []os.FileInfo {
	t.Helper()
	out := make([]os.FileInfo, sp.Runs)
	for i := range out {
		key, err := sp.RunKey(i)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = os.Stat(c.path(key)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestDamagedEntryRecomputedOnResubmit damages one cache entry of a
// finished job and resubmits the spec: the probe must treat the entry
// as a miss, re-run only that index (every other entry file stays the
// same file), rewrite it intact, and serve a report byte-identical to
// the first job's.
func TestDamagedEntryRecomputedOnResubmit(t *testing.T) {
	const spec = `{"scenario":"baseline-f3","jobs":150,"runs":4,"seed":11}`
	var sp JobSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	sp = sp.Normalize()
	srv, ts := newTestServer(t, t.TempDir())
	first := submit(t, ts, spec)
	waitState(t, ts, first.ID, "done", 60*time.Second)
	want := getResult(t, ts, first.ID)

	const damaged = 2
	for _, name := range []string{"flipped-payload-byte", "truncated", "legacy-entry"} {
		t.Run(name, func(t *testing.T) {
			key, err := sp.RunKey(damaged)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(srv.cache.path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(srv.cache.path(key), damages[name](raw), 0o644); err != nil {
				t.Fatal(err)
			}
			before := entryFiles(t, srv.cache, sp)

			v := submit(t, ts, spec)
			waitState(t, ts, v.ID, "done", 60*time.Second)
			if got := getResult(t, ts, v.ID); !bytes.Equal(got, want) {
				t.Error("report after recompute differs from its twin")
			}
			after := entryFiles(t, srv.cache, sp)
			for i := range before {
				rewritten := !os.SameFile(before[i], after[i])
				if rewritten != (i == damaged) {
					t.Errorf("index %d: entry rewritten = %v", i, rewritten)
				}
			}
			if _, ok := srv.cache.Get(key); !ok {
				t.Error("recomputed entry does not verify")
			}
			if j, _ := srv.store.Get(v.ID); len(j.Runs) != sp.Runs {
				t.Errorf("resubmitted job recorded %d runs, want %d", len(j.Runs), sp.Runs)
			}
		})
	}
}

// TestMergedReportIsMarshalFixedPoint checks the served report against
// the schema encoding: decoding it into Report and re-encoding it with
// json.Marshal gives back the same bytes.
func TestMergedReportIsMarshalFixedPoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	v := submit(t, ts, "{ \"scenario\": \"baseline-f3\", \"jobs\": 100, \"runs\": 3 }\n")
	waitState(t, ts, v.ID, "done", 60*time.Second)
	got := getResult(t, ts, v.ID)
	var rep Report
	if err := json.Unmarshal(got, &rep); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("served report is not json.Marshal of its own Report")
	}
}

// TestTornPromotionRepromotedOnResume crashes a cached job mid-way
// through its batched promotion append: the torn record is truncated on
// reopen, and the resumed job promotes the missing hits again, records
// every index exactly once, and serves its twin's report.
func TestTornPromotionRepromotedOnResume(t *testing.T) {
	const spec = `{"scenario":"baseline-f3","jobs":100,"runs":5,"seed":4}`
	dir := t.TempDir()
	want := runToCompletion(t, dir, spec)

	// The crashed process: a resubmitted job, running, whose one
	// promotion append was cut inside its third record.
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	twin := store.List()[0]
	j, err := store.Create(twin.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Transition(j.ID, jobstore.Running, "picked up by worker"); err != nil {
		t.Fatal(err)
	}
	var sp JobSpec
	if err := json.Unmarshal(twin.Spec, &sp); err != nil {
		t.Fatal(err)
	}
	sp = sp.Normalize()
	recs := make([]jobstore.RunRecord, sp.Runs)
	for i := range recs {
		key, err := sp.RunKey(i)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = jobstore.RunRecord{Index: i, Key: key}
	}
	if err := store.RecordRuns(j.ID, recs); err != nil {
		t.Fatal(err)
	}
	runsPath := filepath.Join(store.JobDir(j.ID), "runs.ndjson")
	raw, err := os.ReadFile(runsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	cut := len(lines[0]) + len(lines[1]) + len(lines[2])/2
	if err := os.Truncate(runsPath, int64(cut)); err != nil {
		t.Fatal(err)
	}

	store2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if jj, _ := store2.Get(j.ID); len(jj.Runs) != 2 {
		t.Fatalf("reopened store holds %d runs, want the 2 whole records", len(jj.Runs))
	}
	_, ts := newTestServerWithStore(t, store2)
	waitState(t, ts, j.ID, "done", 60*time.Second)
	if got := getResult(t, ts, j.ID); !bytes.Equal(got, want) {
		t.Error("resumed report differs from its twin")
	}
	raw, err = os.ReadFile(runsPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var rr jobstore.RunRecord
		if err := json.Unmarshal([]byte(line), &rr); err != nil {
			t.Fatalf("checkpoint line %q: %v", line, err)
		}
		seen[rr.Index]++
	}
	for i := 0; i < sp.Runs; i++ {
		if seen[i] != 1 {
			t.Errorf("index %d recorded %d times, want once", i, seen[i])
		}
	}
}

// claimOne opens a distributed job and leases its first index over
// HTTP, returning the claim.
func claimOne(t *testing.T, ts string, spec string) (string, coord.ClaimResponse) {
	t.Helper()
	resp, err := http.Post(ts+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(coord.ClaimRequest{Worker: "test", Max: 1, EngineVersion: sim.Version})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Post(ts+"/v1/jobs/"+v.ID+"/claims", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var cl coord.ClaimResponse
			err := json.NewDecoder(resp.Body).Decode(&cl)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return v.ID, cl
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond) // the dispatcher has not opened the ledger yet
	}
	t.Fatal("claim never granted")
	return "", coord.ClaimResponse{}
}

func publish(t *testing.T, ts, id string, cl coord.ClaimResponse, body string) int {
	t.Helper()
	url := ts + "/v1/jobs/" + id + "/runs/" + strconv.Itoa(cl.Start) + "?claim=" + cl.ClaimID
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPublishNonJSONRejected: a published body that is not JSON gets
// 400 and leaves no cache entry and no checkpoint record; a valid body
// in non-canonical form is stored canonicalized.
func TestPublishNonJSONRejected(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	id, cl := claimOne(t, ts.URL, `{"scenario":"baseline-f3","jobs":50,"runs":3,"distributed":true}`)
	var sp JobSpec
	j, _ := srv.store.Get(id)
	if err := json.Unmarshal(j.Spec, &sp); err != nil {
		t.Fatal(err)
	}
	key, err := sp.Normalize().RunKey(cl.Start)
	if err != nil {
		t.Fatal(err)
	}

	for _, body := range []string{"not json", `{"a":`, `{} {}`, "{\"s\":\"a\nb\"}"} {
		if code := publish(t, ts.URL, id, cl, body); code != http.StatusBadRequest {
			t.Errorf("publish %q: status %d, want 400", body, code)
		}
	}
	entries, _ := filepath.Glob(filepath.Join(srv.cache.dir, "*", "*"))
	if len(entries) != 0 {
		t.Errorf("rejected publishes left cache files %v", entries)
	}
	if j, _ := srv.store.Get(id); len(j.Runs) != 0 {
		t.Errorf("rejected publishes checkpointed %v", j.Runs)
	}

	if code := publish(t, ts.URL, id, cl, " { \"x\" : \"<&>\" }\n"); code != http.StatusOK {
		t.Fatalf("valid publish: status %d", code)
	}
	if got, ok := srv.cache.Get(key); !ok || string(got) != `{"x":"\u003c\u0026\u003e"}` {
		t.Errorf("stored entry %q (hit %v), want the canonical form", got, ok)
	}
}
