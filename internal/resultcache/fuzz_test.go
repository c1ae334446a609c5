package resultcache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"autosec/internal/sim"
)

// FuzzCacheEntry reads arbitrary bytes as a foreign segment, one that
// another writer of this binary left in the version directory beside
// the cache's own segment. Get must never panic, and it may serve only
// what a Put wrote: the fuzzed key only as an entry whose record,
// framed as Put appends it, is in the segment byte for byte, and the
// cache's own key only as the entry it stored. Each input is tried twice: as the whole
// segment, and as a body sealed under the right magic, key and
// checksum in one frame, which is how the fuzzer reaches the body
// decoder past the checksum.
func FuzzCacheEntry(f *testing.F) {
	key := Key("fuzz", "1")
	for _, e := range []*Entry{
		testEntry(1),
		{Report: "r"},
		{Report: "r", Metrics: []sim.Metric{}},
		{Metrics: []sim.Metric{{Name: "", Value: -0.0}}},
	} {
		rec, err := encodeEntry(nil, key, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frameOf(rec))
		f.Add(rec[len(entryMagic)+len(key)+sha256.Size:])
	}
	f.Add([]byte{})
	f.Add([]byte(entryMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegment(t, key, data)

		sealed := make([]byte, 0, len(entryMagic)+len(key)+sha256.Size+len(data))
		sealed = append(sealed, entryMagic...)
		sealed = append(sealed, key...)
		sum := sha256.Sum256(data)
		sealed = append(sealed, sum[:]...)
		sealed = append(sealed, data...)
		checkSegment(t, key, frameOf(sealed))
	})
}

// checkSegment puts seg as a foreign segment into a fresh cache that
// has stored one entry of its own, then reads key and the cache's own
// key through it.
func checkSegment(t *testing.T, key string, seg []byte) {
	t.Helper()
	dir := t.TempDir()
	c := newCache(t, dir)
	own := Key("fuzz", "own")
	if err := c.Put(own, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(versionDir(dir), "foreign"+segExt), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	before := c.Stats()
	e, ok := c.Get(key)
	after := c.Stats()
	if !ok {
		if after.Misses != before.Misses+1 || after.Hits != before.Hits || after.Corrupt > before.Corrupt+1 {
			t.Fatalf("miss not counted as one miss: %+v -> %+v", before, after)
		}
		// A record refused once left the index: no second count.
		if _, ok := c.Get(key); ok || c.Stats().Corrupt != after.Corrupt {
			t.Fatalf("second Get of a refused key: hit=%v, stats %+v -> %+v", ok, after, c.Stats())
		}
	} else {
		if after.Hits != before.Hits+1 || after.Corrupt != before.Corrupt {
			t.Fatalf("hit not counted as one hit: %+v -> %+v", before, after)
		}
		rec, err := encodeEntry(nil, key, e)
		if err != nil {
			t.Fatalf("served entry does not encode: %v", err)
		}
		if !bytes.Contains(seg, frameOf(rec)) {
			t.Fatalf("served an entry whose record is not in the segment: %x", rec)
		}
	}
	// No foreign frame can displace the cache's own entry.
	wantEntry(t, c, own, testEntry(1))
}
