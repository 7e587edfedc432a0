package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// rec is the record type the tests append: one string field, so any
// fuzzed text becomes a record.
type rec struct {
	S string `json:"s"`
}

// collect replays path, accepting exactly the lines that decode as a
// rec, and returns copies of the accepted lines.
func collect(path string) ([]string, error) {
	var lines []string
	err := Replay(path, func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		lines = append(lines, string(line))
		return nil
	})
	return lines, err
}

// encoded returns the lines Append writes for recs, without newlines.
func encoded(t *testing.T, recs []rec) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(raw)
	}
	return out
}

func fileSize(t *testing.T, path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestReplayMissingFile(t *testing.T) {
	err := Replay(filepath.Join(t.TempDir(), "none.ndjson"), func([]byte) error { return nil })
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Replay of a missing file: %v, want os.ErrNotExist", err)
	}
}

// FuzzReplay checks the log rules on arbitrary input: texts, split at
// NUL bytes, are the records; tail is what a crash left after them.
//
//   - Replaying arbitrary bytes never panics, and either fails as
//     corruption or leaves a line-bounded prefix of the file whose every
//     non-blank line was accepted.
//   - Records written by Append followed by a newline-free tail replay
//     to exactly those records, and the file is truncated to their
//     boundary.
//   - A record appended after that replays cleanly, not fused with the
//     dropped tail.
//   - A rejected line followed by a durable one is corruption.
func FuzzReplay(f *testing.F) {
	f.Add("a\x00b", []byte(`{"s":"c`))
	f.Add("", []byte(""))
	f.Add("x", []byte("\n"))
	f.Add("\n\x00 ", []byte(" \t"))
	f.Fuzz(func(t *testing.T, texts string, tail []byte) {
		dir := t.TempDir()

		arb := filepath.Join(dir, "arbitrary.ndjson")
		raw := append([]byte(texts), tail...)
		if err := os.WriteFile(arb, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := collect(arb); err != nil {
			if !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("replay of arbitrary bytes: %v, want nil or a corruption error", err)
			}
		} else {
			left, err := os.ReadFile(arb)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(raw, left) || (len(left) > 0 && left[len(left)-1] != '\n') {
				t.Fatalf("replay left %q of %q, want a line-bounded prefix", left, raw)
			}
			if _, err := collect(arb); err != nil {
				t.Fatalf("second replay of the truncated file: %v", err)
			}
			if fileSize(t, arb) != int64(len(left)) {
				t.Fatal("second replay truncated an already clean file")
			}
		}

		var recs []rec
		if texts != "" {
			for _, s := range strings.Split(texts, "\x00") {
				recs = append(recs, rec{S: s})
			}
		}
		want := encoded(t, recs)
		path := filepath.Join(dir, "log.ndjson")
		if err := AppendFile(path, recs...); err != nil {
			t.Fatal(err)
		}
		boundary := fileSize(t, path)
		torn := bytes.ReplaceAll(tail, []byte("\n"), nil)
		fh, err := OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(torn); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		got, err := collect(path)
		if err != nil {
			t.Fatalf("replay after a torn tail %q: %v", torn, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("replayed %q, want %q", got, want)
		}
		if size := fileSize(t, path); size != boundary {
			t.Fatalf("file is %d bytes after replay, want the record boundary %d", size, boundary)
		}

		next := rec{S: "next"}
		if err := AppendFile(path, next); err != nil {
			t.Fatal(err)
		}
		got, err = collect(path)
		if err != nil {
			t.Fatalf("replay after appending past a dropped tail: %v", err)
		}
		if want := append(want, encoded(t, []rec{next})...); !slices.Equal(got, want) {
			t.Fatalf("replayed %q after a later append, want %q", got, want)
		}

		bad := filepath.Join(dir, "corrupt.ndjson")
		if err := os.WriteFile(bad, []byte("{bad\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := AppendFile(bad, next); err != nil {
			t.Fatal(err)
		}
		if _, err := collect(bad); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("bad line before a good one: %v, want a corruption error", err)
		}
	})
}

// TestWriteFileFailureLeavesTarget: a write callback that fails leaves
// the earlier file as it was and no temp file beside it; one that
// succeeds replaces the file whole.
func TestWriteFileFailureLeavesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	writeString := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFile(path, writeString("first")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		_, _ = io.WriteString(w, "partial") // the failure under test is boom
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want boom", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" {
		t.Fatalf("target after a failed write: %q (%v), want %q", got, err, "first")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %v (%v), want only the target", entries, err)
	}
	if err := WriteFile(path, writeString("second")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Fatalf("target after a rewrite: %q (%v), want %q", got, err, "second")
	}
}
