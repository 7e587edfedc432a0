package simsrv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/durable"
)

// Cache is a content-addressed result store: immutable JSON documents
// filed under their RunKey. Writes are atomic and durable
// (durable.WriteFile) and idempotent — two workers caching the same key
// race harmlessly because the content is identical by construction.
//
// An entry file is the line "sha256:<hex digest of the payload>\n"
// followed by the payload. Reads verify the digest, so an entry that
// was truncated, corrupted on disk, or written before entries carried a
// digest reads as a miss and costs a recompute, never a bad report.
type Cache struct {
	dir string
}

const (
	entryTag       = "sha256:"
	entryHeaderLen = len(entryTag) + 2*sha256.Size + 1
)

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simsrv: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path shards entries by the first two hash bytes to keep directories
// small under large sweeps.
func (c *Cache) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(c.dir, shard, key+".json")
}

// entryHeader returns the digest line that precedes payload on disk.
func entryHeader(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	h := make([]byte, 0, entryHeaderLen)
	h = append(h, entryTag...)
	h = hex.AppendEncode(h, sum[:])
	return append(h, '\n')
}

// Get returns the cached payload for key, if present and intact.
func (c *Cache) Get(key string) ([]byte, bool) {
	var scratch []byte
	return c.get(key, &scratch)
}

// get is Get reading the entry into *scratch, which it grows as needed
// and leaves for the next call; the returned payload aliases it.
func (c *Cache) get(key string, scratch *[]byte) ([]byte, bool) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() <= int64(entryHeaderLen) {
		return nil, false
	}
	buf := slices.Grow((*scratch)[:0], int(fi.Size()))[:fi.Size()]
	*scratch = buf
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, false
	}
	payload := buf[entryHeaderLen:]
	if !bytes.Equal(buf[:entryHeaderLen], entryHeader(payload)) {
		return nil, false
	}
	return payload, true
}

// Put files data under key, durably and atomically (durable.WriteFile).
func (c *Cache) Put(key string, data []byte) error {
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("simsrv: cache: %w", err)
	}
	err := durable.WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(entryHeader(data)); err != nil {
			return err
		}
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("simsrv: cache: %w", err)
	}
	return nil
}
