// Package durable owns the service's on-disk crash rules. Every
// append-only log (the job transition log, the run checkpoint log, the
// coordinator's claim WAL) is replayed with Replay and written with
// Append, and every file replaced whole (job specs, merged reports,
// result-cache entries) is written with WriteFile.
//
// The rules, stated once:
//
//   - A log is NDJSON. A record is durable only once its trailing
//     newline is on disk. An append encodes all its records into one
//     buffer, writes it in one call and fsyncs before returning, so an
//     acknowledged record survives a crash and a crash mid-append
//     leaves at most a torn final line.
//   - Replay drops a torn final line (no newline, or rejected by the
//     caller) and truncates the file to the last durable line, so the
//     next append starts on a line boundary instead of fusing with the
//     partial record. A rejected line with durable lines after it is
//     corruption, and replay fails loudly rather than skip it.
//   - A whole-file write goes to a temp file beside the target, is
//     fsynced, renamed over the target, and the directory is fsynced,
//     so readers see the old file or the whole new one and a crash
//     after the write returns keeps the new one.
package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Replay reads the NDJSON file at path and calls fn with each durable
// non-blank line, in order. The line aliases a buffer Replay owns; fn
// must copy what it keeps. fn rejects a line by returning an error and
// must then leave its state as if it had never seen the line.
//
// A final line that lacks its newline or that fn rejects is a torn
// write: it is dropped and the file is truncated to the end of the last
// durable line. A rejected line followed by a durable line is
// corruption: Replay returns an error saying so, wrapping fn's error. A
// missing file returns an error matching os.ErrNotExist.
func Replay(path string, fn func(line []byte) error) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	good := 0 // byte offset just past the last durable line
	var pendingErr error
	for pos := 0; pos < len(raw); {
		nl := bytes.IndexByte(raw[pos:], '\n')
		if nl < 0 {
			break // newline-less tail: torn by definition
		}
		line := raw[pos : pos+nl]
		pos += nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			good = pos
			continue
		}
		if pendingErr != nil {
			return fmt.Errorf("%s: corrupt mid-file record: %w", path, pendingErr)
		}
		if err := fn(line); err != nil {
			pendingErr = err // torn write if this turns out to be the tail
			continue
		}
		good = pos
	}
	if good < len(raw) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	return nil
}

// OpenAppend opens the log at path for appending, creating it if it
// does not exist.
func OpenAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
}

// Append durably appends one JSON document and newline per record to
// f, which OpenAppend opened: one buffer, one write, one fsync.
func Append[T any](f *os.File, recs ...T) error {
	var buf []byte
	for _, r := range recs {
		raw, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf = append(append(buf, raw...), '\n')
	}
	if _, err := f.Write(buf); err != nil {
		return err
	}
	return f.Sync()
}

// AppendFile is Append on the log at path, opened for this call only.
func AppendFile[T any](path string, recs ...T) error {
	f, err := OpenAppend(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Append(f, recs...)
}

// WriteFile replaces the file at path with what write produces. write
// streams into a temp file in path's directory, which is then fsynced,
// renamed over path, and the directory fsynced. If write or any step
// before the rename fails, the temp file is removed and path is left as
// it was. write receives the unbuffered file.
func WriteFile(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
