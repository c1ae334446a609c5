package resultcache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"autosec/internal/sim"
)

// FuzzCacheEntry writes arbitrary bytes as an entry file and reads it
// back. Get must never panic, and every read has one of two outcomes:
// a miss that counts one corruption and deletes the file, or a hit
// whose entry, stored again by Put, writes exactly the bytes read. Each
// input is tried twice: as the whole file, and as a body sealed under
// the right magic, key and checksum, which is how the fuzzer reaches
// the body decoder past the checksum.
func FuzzCacheEntry(f *testing.F) {
	key := Key("fuzz", "1")
	for _, e := range []*Entry{
		testEntry(1),
		{Report: "r"},
		{Report: "r", Metrics: []sim.Metric{}},
		{Metrics: []sim.Metric{{Name: "", Value: -0.0}}},
	} {
		data, err := encodeEntry(key, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[len(entryMagic)+len(key)+sha256.Size:])
	}
	f.Add([]byte{})
	f.Add([]byte(entryMagic))

	// One cache serves every input: each check leaves the entry file
	// either deleted or rewritten, and compares counters by difference.
	c, err := New(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEntryFile(t, c, key, data)

		sealed := make([]byte, 0, len(entryMagic)+len(key)+sha256.Size+len(data))
		sealed = append(sealed, entryMagic...)
		sealed = append(sealed, key...)
		sum := sha256.Sum256(data)
		sealed = append(sealed, sum[:]...)
		sealed = append(sealed, data...)
		checkEntryFile(t, c, key, sealed)
	})
}

// checkEntryFile writes data as key's entry file in c and checks that
// Get either discards it as corrupt or serves an entry that Put
// re-encodes to the same bytes.
func checkEntryFile(t *testing.T, c *Cache, key string, data []byte) {
	t.Helper()
	path := c.EntryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	e, ok := c.Get(key)
	after := c.Stats()
	if !ok {
		if after.Corrupt != before.Corrupt+1 || after.Misses != before.Misses+1 {
			t.Fatalf("miss without one corruption and one miss counted: %+v -> %+v", before, after)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry file left behind (stat: %v)", err)
		}
		return
	}
	if after.Hits != before.Hits+1 || after.Corrupt != before.Corrupt {
		t.Fatalf("hit not counted as one hit: %+v -> %+v", before, after)
	}
	if err := c.Put(key, e); err != nil {
		t.Fatalf("Put of an entry Get served: %v", err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("Put re-encoded a served entry differently:\n read %x\nwrote %x", data, again)
	}
}
