package simsrv

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"

	"repro/sim"
)

// Report is the merged result document of one job. It carries no
// job-local identity (no ID, no timestamps): the same spec merged from
// the same per-run results is byte-identical whether the sweep ran
// uninterrupted or resumed across any number of restarts.
//
// The merge does not build a Report: it splices cache entries into
// the same bytes json.Marshal of the Report would produce (writeReport).
type Report struct {
	SpecHash      string          `json:"spec_hash"`
	EngineVersion string          `json:"engine_version"`
	Spec          json.RawMessage `json:"spec"`
	Runs          []ReportRun     `json:"runs"`
}

// ReportRun is one run's slot in the merged report.
type ReportRun struct {
	Index  int             `json:"index"`
	Seed   uint64          `json:"seed"`
	Result json.RawMessage `json:"result"`
}

// reportHead returns the encoded report up to and including the opening
// bracket of its runs array. The header fields are small, so they go
// through encoding/json, which escapes and compacts them exactly as a
// whole-Report json.Marshal does.
func reportHead(specHash string, spec json.RawMessage) ([]byte, error) {
	head, err := json.Marshal(Report{SpecHash: specHash, EngineVersion: sim.Version, Spec: spec, Runs: []ReportRun{}})
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(head, []byte("]}")), nil
}

// writeReport writes a report of n runs to w: head from reportHead,
// then run i's slot with seed(i) and the payload result(i) returns,
// copied verbatim. Payloads must be canonical JSON, as json.Marshal
// emits it (compact, HTML-escaped); then the output equals json.Marshal
// of the equivalent Report byte for byte. Local results are canonical
// by construction and published ones are canonicalized on arrival
// (canonicalResult).
func writeReport(w io.Writer, head []byte, n int, seed func(int) uint64, result func(int) ([]byte, error)) error {
	if _, err := w.Write(head); err != nil {
		return err
	}
	var slot []byte
	for i := 0; i < n; i++ {
		data, err := result(i)
		if err != nil {
			return err
		}
		slot = slot[:0]
		if i > 0 {
			slot = append(slot, ',')
		}
		slot = append(slot, `{"index":`...)
		slot = strconv.AppendInt(slot, int64(i), 10)
		slot = append(slot, `,"seed":`...)
		slot = strconv.AppendUint(slot, seed(i), 10)
		slot = append(slot, `,"result":`...)
		if _, err := w.Write(slot); err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}

// canonicalResult validates a run result document and returns it in
// canonical form — the validate, compact and HTML-escape pass that
// json.Marshal applies to a json.RawMessage field.
func canonicalResult(body []byte) ([]byte, error) {
	return json.Marshal(json.RawMessage(body))
}
