package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

const key = "5b25a6dc50b25c2cb72acf35eec39d4ff5ecd06c5ca47024f63fb8e5b108a2be"

func open(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := open(t)
	doc := []byte(`{"experiments":[]}` + "\n")

	if _, ok, err := c.Get(key); err != nil || ok {
		t.Fatalf("Get on empty cache = ok=%v err=%v; want miss", ok, err)
	}
	if c.Contains(key) {
		t.Fatalf("Contains true on empty cache")
	}
	if err := c.Put(key, doc); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatalf("Get returned different bytes: %q vs %q", got, doc)
	}
	if !c.Contains(key) {
		t.Fatalf("Contains false after Put")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 put", st)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
}

func TestOverwriteIsLastWriterWins(t *testing.T) {
	c := open(t)
	if err := c.Put(key, []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.Put(key, []byte("two")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok || string(got) != "two" {
		t.Fatalf("Get = %q ok=%v err=%v; want \"two\"", got, ok, err)
	}
	if n, _ := c.Len(); n != 1 {
		t.Fatalf("Len = %d after overwrite; want 1", n)
	}
}

func TestKeyValidation(t *testing.T) {
	c := open(t)
	bad := []string{
		"",
		"short",
		"ABCDEF0123456789",           // uppercase
		"../../../../etc/passwd",     // traversal
		"0123456789abcdefg123456789", // non-hex
		"01234567\x0089abcdef",       // control byte
	}
	for _, k := range bad {
		if err := c.Put(k, []byte("x")); err == nil {
			t.Errorf("Put accepted bad key %q", k)
		}
		if _, _, err := c.Get(k); err == nil {
			t.Errorf("Get accepted bad key %q", k)
		}
		if c.Contains(k) {
			t.Errorf("Contains true for bad key %q", k)
		}
	}
	// Nothing escaped the cache directory.
	if n, err := c.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v after rejected puts; want 0", n, err)
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	c := open(t)
	if err := c.Put(key, []byte("doc")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ents, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			t.Fatalf("stray file %q in cache root", e.Name())
		}
	}
}

func TestSharding(t *testing.T) {
	c := open(t)
	if err := c.Put(key, []byte("doc")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	want := filepath.Join(c.Dir(), key[:2], key+".json")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("document not at sharded path %s: %v", want, err)
	}
}

// TestConcurrentWriters hammers one directory from many goroutines —
// both racing on a single key (the cross-process same-spec race, where
// identical bytes make last-rename-wins safe) and writing distinct
// keys. Run under -race; every reader must see a complete document.
func TestConcurrentWriters(t *testing.T) {
	c := open(t)
	doc := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KiB, torn writes would show

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Everyone fights over the shared key...
				if err := c.Put(key, doc); err != nil {
					errs <- err
					return
				}
				if got, ok, err := c.Get(key); err != nil || !ok || !bytes.Equal(got, doc) {
					errs <- fmt.Errorf("shared key read ok=%v err=%v len=%d", ok, err, len(got))
					return
				}
				// ...and owns a private key.
				own := fmt.Sprintf("%056x%04x%04x", 0, g, i)
				if err := c.Put(own, doc); err != nil {
					errs <- err
					return
				}
				if got, ok, err := c.Get(own); err != nil || !ok || !bytes.Equal(got, doc) {
					errs <- fmt.Errorf("private key read ok=%v err=%v len=%d", ok, err, len(got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent access: %v", err)
	}
	if n, err := c.Len(); err != nil || n != 65 { // 64 private + 1 shared
		t.Fatalf("Len = %d, %v; want 65", n, err)
	}
}

// TestSharedDirectoryBetweenHandles models two servers on one cache
// directory: a put through one handle is a hit through the other.
func TestSharedDirectoryBetweenHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatalf("Open a: %v", err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatalf("Open b: %v", err)
	}
	doc := []byte("shared")
	if err := a.Put(key, doc); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := b.Get(key)
	if err != nil || !ok || !bytes.Equal(got, doc) {
		t.Fatalf("second handle Get = %q ok=%v err=%v", got, ok, err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatalf("Open accepted an empty directory")
	}
}

// TestCorruptDocumentIsQuarantinedMiss: a stored file with one byte
// flipped, or cut short, is a miss, not a hit, and is moved aside as
// <key>.json.corrupt with its bytes intact; the next Put stores afresh.
func TestCorruptDocumentIsQuarantinedMiss(t *testing.T) {
	doc := []byte(`{"experiments":[{"experiment":"fig9"}]}` + "\n")
	for _, tc := range []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)-4] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:sumLen+len(`{"experim`)] }},
		{"checksum only", func(b []byte) []byte { return b[:sumLen] }},
		{"no checksum", func(b []byte) []byte { return b[sumLen:] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := open(t)
			if err := c.Put(key, doc); err != nil {
				t.Fatalf("Put: %v", err)
			}
			path := filepath.Join(c.Dir(), key[:2], key+".json")
			stored, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := tc.corrupt(stored)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := c.Get(key); err != nil || ok || got != nil {
				t.Fatalf("Get of a corrupt file = %q ok=%v err=%v; want a miss", got, ok, err)
			}
			if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v; want 0 hits, 1 miss", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still at %s (err %v)", path, err)
			}
			if q, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(q, bad) {
				t.Fatalf("quarantined file = %q, %v; want the corrupt bytes", q, err)
			}
			if n, err := c.Len(); err != nil || n != 0 {
				t.Fatalf("Len = %d, %v; the quarantined file must not count", n, err)
			}
			if err := c.Put(key, doc); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if got, ok, err := c.Get(key); err != nil || !ok || !bytes.Equal(got, doc) {
				t.Fatalf("Get after re-Put = %q ok=%v err=%v", got, ok, err)
			}
		})
	}
}
