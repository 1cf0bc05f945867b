// Package resultcache is a content-addressed on-disk store for gsbench
// run documents, keyed by experiment-spec hash (internal/spec). The
// simulator is bit-identically deterministic, so a document stored under
// a spec hash is THE result for that spec: a hit replaces a simulation
// run with a file read, which is what makes resubmitted sweeps cost
// only hash lookups.
//
// Layout: <dir>/<key[:2]>/<key>.json, one document per key. Each file
// holds the document's lowercase hex SHA-256, a newline, then the
// document. Get checks the sum, so a truncated or altered file is a
// miss, never a hit: it is renamed to <key>.json.corrupt and the point
// runs again. Writes are atomic (unique temp file + rename into place),
// so concurrent writers — worker goroutines in one process or multiple
// gsbench servers sharing the directory — can never expose a torn
// document; racing writers of the same key write identical bytes
// (determinism again), so last-rename-wins is harmless.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Cache is a handle on one cache directory. All methods are safe for
// concurrent use.
type Cache struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
}

// Stats counts this handle's traffic (not the directory's contents).
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// checkKey rejects anything that is not a plausible spec hash, so a key
// can never traverse outside the cache directory.
func checkKey(key string) error {
	if len(key) < 8 {
		return fmt.Errorf("resultcache: key %q too short", key)
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return fmt.Errorf("resultcache: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// path returns the object path for key; keys shard into 256 two-hex
// subdirectories to keep directory listings shallow.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// sumLen is the length of a stored file's checksum line.
const sumLen = 2*sha256.Size + 1

// Get returns the document stored under key. A missing key is
// (nil, false, nil), and so is a file whose checksum does not match its
// document; that file is quarantined as <key>.json.corrupt. Errors are
// real I/O failures.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	if err := checkKey(key); err != nil {
		return nil, false, err
	}
	path := c.path(key)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		c.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("resultcache: %w", err)
	}
	if len(b) < sumLen || b[sumLen-1] != '\n' || checksum(b[sumLen:]) != string(b[:sumLen-1]) {
		// Best effort: a concurrent Get may have moved it already, and a
		// file left in place is overwritten by the point's next Put.
		_ = os.Rename(path, path+".corrupt")
		c.misses.Add(1)
		return nil, false, nil
	}
	c.hits.Add(1)
	return b[sumLen:], true, nil
}

// checksum is the lowercase hex SHA-256 of doc.
func checksum(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// Contains reports whether key is stored, without counting a hit or
// reading the document.
func (c *Cache) Contains(key string) bool {
	if checkKey(key) != nil {
		return false
	}
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Put stores doc and its checksum under key atomically: the file is
// written to a unique temp file in the cache root and renamed into
// place, so readers and concurrent writers (including other processes)
// never observe a partial document.
func (c *Cache) Put(key string, doc []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	dst := c.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.WriteString(checksum(doc) + "\n")
	if err == nil {
		_, err = tmp.Write(doc)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// Len walks the directory and counts stored documents.
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") && !strings.HasPrefix(d.Name(), ".") {
			n++
		}
		return nil
	})
	return n, err
}

// Stats returns this handle's hit/miss/put counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Puts: c.puts.Load()}
}
