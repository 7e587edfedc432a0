package simsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/sim"
)

// oracleSpec is the raw spec every splice oracle carries: whitespace
// and HTML-sensitive bytes that the report must compact and escape.
var oracleSpec = json.RawMessage("{ \"scenario\" : \"baseline-f3\",\n \"note\": \"<a & b>\" }")

// marshalReport is the reference encoding: json.Marshal of the whole
// Report, raw result bodies included.
func marshalReport(t testing.TB, spec json.RawMessage, bodies [][]byte, seed func(int) uint64) ([]byte, error) {
	t.Helper()
	rep := Report{SpecHash: "h<&>", EngineVersion: sim.Version, Spec: spec, Runs: make([]ReportRun, len(bodies))}
	for i, b := range bodies {
		rep.Runs[i] = ReportRun{Index: i, Seed: seed(i), Result: b}
	}
	return json.Marshal(rep)
}

// splice encodes the same report through reportHead and writeReport
// from already canonical entries.
func splice(t testing.TB, spec json.RawMessage, entries [][]byte, seed func(int) uint64) []byte {
	t.Helper()
	head, err := reportHead("h<&>", spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = writeReport(&buf, head, len(entries), seed, func(i int) ([]byte, error) { return entries[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func seedOf(i int) uint64 { return sim.DeriveSeed(^uint64(0), i) }

// assertSpliceMatches checks splice(canonicalized bodies) against the
// reference Marshal of the raw bodies.
func assertSpliceMatches(t *testing.T, bodies [][]byte) {
	t.Helper()
	want, err := marshalReport(t, oracleSpec, bodies, seedOf)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([][]byte, len(bodies))
	for i, b := range bodies {
		if entries[i], err = canonicalResult(b); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
	}
	if got := splice(t, oracleSpec, entries, seedOf); !bytes.Equal(got, want) {
		t.Errorf("spliced report differs from json.Marshal(Report)\n got %.300q\nwant %.300q", got, want)
	}
}

// localResults runs a sweep through the public API and encodes each
// result as the local runner does.
func localResults(t *testing.T, spec string) [][]byte {
	t.Helper()
	var sp JobSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	sp = sp.Normalize()
	simu, err := sp.Simulation()
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]sim.Run, sp.Runs)
	for i := range runs {
		runs[i] = sim.Run{Sim: simu}
	}
	outs, err := sim.RunSweep(context.Background(), runs, sim.SweepOptions{BaseSeed: sp.Seed})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(outs))
	for i, out := range outs {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if bodies[i], err = json.Marshal(out.Result); err != nil {
			t.Fatal(err)
		}
	}
	return bodies
}

// TestSpliceMatchesMarshalLocalResults is the byte-identity oracle on
// real engine output: local entries are json.Marshal output, already
// canonical, and splice to json.Marshal(Report)'s bytes.
func TestSpliceMatchesMarshalLocalResults(t *testing.T) {
	bodies := localResults(t, `{"scenario":"baseline-f3","jobs":120,"runs":3,"seed":5}`)
	for i, b := range bodies {
		if c, _ := canonicalResult(b); !bytes.Equal(c, b) {
			t.Errorf("local result %d is not canonical", i)
		}
	}
	assertSpliceMatches(t, bodies)
}

// TestSpliceMatchesMarshalLargeEntry runs the oracle on one result the
// size of a large-runs benchmark run (several MB).
func TestSpliceMatchesMarshalLargeEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB simulation")
	}
	bodies := localResults(t, `{"scenario":"baseline-f3","jobs":2500,"runs":1,"seed":2}`)
	if len(bodies[0]) < 1<<20 {
		t.Fatalf("entry is %d bytes, want a multi-MB one", len(bodies[0]))
	}
	assertSpliceMatches(t, bodies)
}

// publishedBodies are worker bodies that are valid JSON but not in
// canonical form.
var publishedBodies = []string{
	" {\n\t\"a\" : [ 1 , 2.50 , -0 , 1e10 ] ,\r\n \"b\" : { } } \n",
	`{"html":"<script>&amp;</script>","k<>":"&"}`,
	"{\"sep\":\"line\u2028para\u2029end\"}",
	`{"u":"\u003c\u0026\u00e9\ud83d\ude00\u2028\u0000"}`,
	`{"esc":"<& 😀 \"q\" \\ \/ \b\f\n\r\t"}`,
	`"just a string"`,
	`[]`,
	`null`,
	`12345678901234567890`,
	"{\"utf8\":\"héllo 世界\"}",
}

// TestSpliceMatchesMarshalPublishedBodies runs the oracle on published
// bodies: canonicalization at ingestion must reproduce exactly what
// json.Marshal(Report) does to the raw bytes.
func TestSpliceMatchesMarshalPublishedBodies(t *testing.T) {
	bodies := make([][]byte, len(publishedBodies))
	for i, b := range publishedBodies {
		bodies[i] = []byte(b)
	}
	assertSpliceMatches(t, bodies)
	for i, b := range bodies {
		t.Run(fmt.Sprint(i), func(t *testing.T) { assertSpliceMatches(t, [][]byte{b}) })
	}
}

// TestSpliceEmptyReport covers a report with no runs.
func TestSpliceEmptyReport(t *testing.T) {
	assertSpliceMatches(t, [][]byte{})
}

// FuzzReportSplice feeds arbitrary bodies through publish
// canonicalization and the splice: either the publish is refused —
// exactly when json.Marshal(Report) of the raw body fails — or the
// spliced report equals that Marshal byte for byte.
func FuzzReportSplice(f *testing.F) {
	for _, b := range publishedBodies {
		f.Add([]byte(b))
	}
	f.Add([]byte(`{"a":`))
	f.Add([]byte(" "))
	f.Fuzz(func(t *testing.T, body []byte) {
		entry, err := canonicalResult(body)
		want, merr := marshalReport(t, oracleSpec, [][]byte{body}, seedOf)
		if err != nil {
			if merr == nil {
				t.Fatalf("publish refused %q (%v) but json.Marshal(Report) encodes it", body, err)
			}
			return
		}
		if merr != nil {
			t.Fatalf("publish accepted %q but json.Marshal(Report) fails: %v", body, merr)
		}
		if got := splice(t, oracleSpec, [][]byte{entry}, seedOf); !bytes.Equal(got, want) {
			t.Fatalf("body %q: spliced report differs\n got %q\nwant %q", body, got, want)
		}
	})
}
