package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/durable"
)

// The ledger's write-ahead log. Every claim-state transition is
// appended as one fsynced NDJSON record before it is applied, so a
// coordinator restarted over the same store replays the file and
// resumes the sweep with live leases, permanent claim-ID fences,
// per-index attempt counts, and quarantine verdicts intact. Replay and
// append follow internal/durable's log rules, shared with jobstore.

// WAL record operations.
const (
	opClaim      = "claim"      // a range was leased: Claim, Worker, Start, End, Expires
	opRenew      = "renew"      // a lease was extended: Claim, Expires
	opDone       = "done"       // one index completed under a claim: Claim, Index
	opRelease    = "release"    // a claim retired voluntarily; unfinished indices returned
	opFence      = "fence"      // a lease expired; unfinished indices returned, attempts bumped
	opFail       = "fail"       // a worker reported one index failed: Claim, Index, Reason
	opQuarantine = "quarantine" // an index hit the attempt budget: Index, Attempts, Reason
)

// WALRecord is one ledger transition on disk. Which fields are
// meaningful depends on Op (see the op constants); zero values of the
// others are omitted.
type WALRecord struct {
	Op       string `json:"op"`
	Claim    string `json:"claim,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Start    int    `json:"start,omitempty"`
	End      int    `json:"end,omitempty"`
	Index    int    `json:"index,omitempty"`
	Expires  int64  `json:"expires_ms,omitempty"` // lease deadline, unix milliseconds
	Attempts int    `json:"attempts,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// WAL is an append-only, fsynced NDJSON file of ledger transitions.
// Appends are serialized by the ledger's mutex; the WAL itself adds no
// locking.
type WAL struct {
	f *os.File
}

// OpenWAL replays the WAL at path with durable.Replay — a torn final
// line is truncated, mid-file corruption fails loudly — and opens it
// for appending. A missing file yields an empty record slice and a
// fresh WAL.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	var recs []WALRecord
	err := durable.Replay(path, func(line []byte) error {
		var rec WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Op == "" {
			return errors.New("record has no op")
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("coord: wal: %w", err)
	}
	f, err := durable.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("coord: wal: %w", err)
	}
	return &WAL{f: f}, recs, nil
}

// Append durably writes one record (durable.Append). The record is the
// transition's durability point — the ledger applies a transition only
// after its record is on disk.
func (w *WAL) Append(rec WALRecord) error {
	if err := durable.Append(w.f, rec); err != nil {
		return fmt.Errorf("coord: wal: %w", err)
	}
	return nil
}

// Close releases the append handle. Safe on a nil WAL.
func (w *WAL) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}
