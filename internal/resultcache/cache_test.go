package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"autosec/internal/sim"
)

func testEntry(i int) *Entry {
	return &Entry{
		Report: fmt.Sprintf("report %d\nwith a table │ and unicode ═══\n", i),
		Metrics: []sim.Metric{
			{Name: "rate", Value: float64(i) / 7},
			{Name: "err-m", Value: -0.1234567890123456789 * float64(i)},
			{Name: "tiny", Value: 2.2250738585072014e-308},
		},
	}
}

func TestKeyIsPositionalAndCollisionFree(t *testing.T) {
	t.Parallel()
	if Key("a", "b") == Key("ab") || Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing failed: distinct part splits share a key")
	}
	if Key("x") != Key("x") {
		t.Error("Key is not deterministic")
	}
	if len(Key()) != 64 {
		t.Errorf("Key() = %q, want 64 hex chars", Key())
	}
}

func TestPutGetRoundTripIsExact(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		e    *Entry
	}{
		{"typical", testEntry(3)},
		{"nil metrics", &Entry{Report: "r"}},
		{"empty metrics", &Entry{Report: "r", Metrics: []sim.Metric{}}},
		{"empty report and names", &Entry{Metrics: []sim.Metric{{Name: "", Value: 1}}}},
		{"negative zero", &Entry{Report: "r", Metrics: []sim.Metric{{Name: "z", Value: math.Copysign(0, -1)}}}},
		{"subnormal", &Entry{Report: "r", Metrics: []sim.Metric{
			{Name: "min", Value: math.SmallestNonzeroFloat64},
			{Name: "neg", Value: -math.Float64frombits(0x000f_ffff_ffff_ffff)},
			{Name: "max", Value: math.MaxFloat64},
		}}},
		{"report over 64 KiB", &Entry{Report: strings.Repeat("│ row ═\n", 70<<10/10), Metrics: testEntry(1).Metrics}},
		{"invalid UTF-8", &Entry{Report: "bad \xff\xfe bytes \xc3", Metrics: []sim.Metric{{Name: "\x80name", Value: 2}}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := newCache(t, t.TempDir())
			key := Key("exp", "42", "v1")
			if _, ok := c.Get(key); ok {
				t.Fatal("Get on an empty cache hit")
			}
			if err := c.Put(key, tc.e); err != nil {
				t.Fatal(err)
			}
			got, ok := c.Get(key)
			if !ok {
				t.Fatal("Get after Put missed")
			}
			if got.Report != tc.e.Report {
				t.Errorf("report changed through the cache:\n got %q\nwant %q", got.Report, tc.e.Report)
			}
			if !metricsBitEqual(got.Metrics, tc.e.Metrics) {
				t.Errorf("metrics changed through the cache:\n got %#v\nwant %#v", got.Metrics, tc.e.Metrics)
			}
			s := c.Stats()
			if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 || s.Corrupt != 0 {
				t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 store, 0 corrupt", s)
			}
		})
	}
}

// metricsBitEqual is sim.MetricsEqual made strict: nil and empty
// differ, and values compare by their bits, so −0 is not +0.
func metricsBitEqual(a, b []sim.Metric) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

func TestPutRejectsUnmarshalableMetrics(t *testing.T) {
	t.Parallel()
	c := newCache(t, t.TempDir())
	e := &Entry{Report: "r", Metrics: []sim.Metric{{Name: "nan", Value: math.NaN()}}}
	if err := c.Put(Key("k"), e); err == nil {
		t.Error("Put with a NaN metric succeeded, want error")
	}
	if _, ok := c.Get(Key("k")); ok {
		t.Error("rejected Put left a readable entry behind")
	}
}

// frameOf frames a record as Put appends it: its length, then the
// record.
func frameOf(rec []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(rec))), rec...)
}

// versionDir is where a cache rooted at dir keeps this binary's
// segments.
func versionDir(dir string) string { return filepath.Join(dir, CodeVersion()) }

// newCache opens a cache on dir and closes it when the test ends.
func newCache(t testing.TB, dir string) *Cache {
	t.Helper()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wantEntry fails t unless c serves want under key, bit for bit.
func wantEntry(t *testing.T, c *Cache, key string, want *Entry) {
	t.Helper()
	got, ok := c.Get(key)
	if !ok {
		t.Fatalf("Get(%.16s…) missed", key)
	}
	if got.Report != want.Report || !metricsBitEqual(got.Metrics, want.Metrics) {
		t.Fatalf("Get(%.16s…) served %q %v, want %q %v", key, got.Report, got.Metrics, want.Report, want.Metrics)
	}
}

func TestCorruptionIsDetectedDeletedAndCounted(t *testing.T) {
	t.Parallel()
	key := Key("exp-ids", "7", "v1")
	other := Key("some", "other", "cell")
	// Each case damages the segment holding key's record (at) and,
	// right after it, other's record of the same length.
	type span struct{ off, end int }
	cases := []struct {
		name    string
		lookup  string
		corrupt func(t *testing.T, seg []byte, at, oth span) []byte
		// fresh is the corrupt count of a fresh cache on the damaged
		// directory, as after a restart: a record it can still frame
		// and index is read, refused and counted once; one it cannot
		// is never indexed and is a plain miss.
		fresh uint64
	}{
		{"flipped payload byte", key, func(t *testing.T, seg []byte, at, _ span) []byte {
			// Flip a byte inside the body's report text, past the
			// magic, the key and the checksum, so only the checksum
			// can catch it.
			i := strings.Index(string(seg[at.off:at.end]), "report")
			if i < len(entryMagic)+64+sha256.Size {
				t.Fatalf("report text not found in the body (index %d)", i)
			}
			seg[at.off+i] ^= 0x01
			return seg
		}, 1},
		{"flipped magic byte", key, func(t *testing.T, seg []byte, at, _ span) []byte {
			seg[at.off] ^= 0x01
			return seg
		}, 0},
		{"resealed body with a trailing byte", key, func(t *testing.T, seg []byte, at, _ span) []byte {
			// The checksum matches the new body and the frame its new
			// length, so a fresh cache indexes the record and only the
			// body decoder can refuse the extra byte. The writer's
			// index still holds the old length, which the frame
			// contradicts.
			rec := append(slices.Clone(seg[at.off:at.end]), 0)
			bodyAt := len(entryMagic) + 64 + sha256.Size
			sum := sha256.Sum256(rec[bodyAt:])
			copy(rec[bodyAt-sha256.Size:], sum[:])
			out := append(slices.Clone(seg[:at.off-frameHead]), frameOf(rec)...)
			return append(out, seg[at.end:]...)
		}, 1},
		{"truncated file", key, func(t *testing.T, seg []byte, at, _ span) []byte {
			// The segment ends inside the record, as a torn tail does.
			return seg[:at.off+10]
		}, 0},
		{"empty record", key, func(t *testing.T, seg []byte, at, _ span) []byte {
			binary.LittleEndian.PutUint32(seg[at.off-frameHead:], 0)
			return seg
		}, 0},
		{"record served under the wrong key", other, func(t *testing.T, seg []byte, at, oth span) []byte {
			// Keep every frame intact but put key's record where the
			// index says other's is: the embedded-key check must
			// refuse it.
			if at.end-at.off != oth.end-oth.off {
				t.Fatalf("records of %d and %d bytes: the case needs equal lengths", at.end-at.off, oth.end-oth.off)
			}
			copy(seg[oth.off:oth.end], seg[at.off:at.end])
			return seg
		}, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			c := newCache(t, dir)
			if err := c.Put(key, testEntry(1)); err != nil {
				t.Fatal(err)
			}
			if err := c.Put(other, testEntry(2)); err != nil {
				t.Fatal(err)
			}
			path, off, end, ok := c.RecordSpan(key)
			_, ooff, oend, ook := c.RecordSpan(other)
			if !ok || !ook {
				t.Fatal("RecordSpan found no record for a stored key")
			}
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			seg = tc.corrupt(t, seg, span{int(off), int(end)}, span{int(ooff), int(oend)})
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}

			fresh := newCache(t, dir)
			for _, r := range []struct {
				name    string
				c       *Cache
				corrupt uint64
			}{{"writer", c, 1}, {"fresh cache", fresh, tc.fresh}} {
				if _, ok := r.c.Get(tc.lookup); ok {
					t.Fatalf("%s: Get served a corrupt record", r.name)
				}
				if s := r.c.Stats(); s.Corrupt != r.corrupt || s.Misses != 1 {
					t.Errorf("%s: stats %+v, want %d corrupt and 1 miss", r.name, s, r.corrupt)
				}
				// The damaged record left the index: the next Get is a
				// plain miss.
				if _, ok := r.c.Get(tc.lookup); ok {
					t.Fatalf("%s: corrupt record survived its detection", r.name)
				}
				if s := r.c.Stats(); s.Corrupt != r.corrupt {
					t.Errorf("%s: second Get re-counted corruption: %+v", r.name, s)
				}
			}
			// The next Put appends a replacement.
			if err := c.Put(tc.lookup, testEntry(3)); err != nil {
				t.Fatal(err)
			}
			wantEntry(t, c, tc.lookup, testEntry(3))
		})
	}
}

func TestPrefixCollisionIsAPlainMiss(t *testing.T) {
	t.Parallel()
	c := newCache(t, t.TempDir())
	a := Key("a")
	b := a[:prefixLen] + Key("b")[prefixLen:] // a's 64-bit id, another key
	if err := c.Put(a, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(b); ok {
		t.Fatal("Get served a's record under a colliding key")
	}
	if s := c.Stats(); s.Corrupt != 0 || s.Misses != 1 {
		t.Errorf("stats %+v, want a plain miss", s)
	}
	wantEntry(t, c, a, testEntry(1))
	// The newer record of the pair takes the index entry.
	if err := c.Put(b, testEntry(2)); err != nil {
		t.Fatal(err)
	}
	wantEntry(t, c, b, testEntry(2))
	if _, ok := c.Get(a); ok {
		t.Fatal("Get served b's record under a")
	}
	if s := c.Stats(); s.Corrupt != 0 {
		t.Errorf("collision counted as corruption: %+v", s)
	}
}

func TestPutRejectsMalformedKeys(t *testing.T) {
	t.Parallel()
	c := newCache(t, t.TempDir())
	for _, k := range []string{"", "short", strings.ToUpper(Key("k")), "zz" + Key("k")} {
		if err := c.Put(k, testEntry(1)); err == nil {
			t.Errorf("Put(%q) succeeded, want error", k)
		}
		if _, ok := c.Get(k); ok {
			t.Errorf("Get(%q) hit", k)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	t.Parallel()
	c := newCache(t, t.TempDir())
	const workers = 8
	const keys = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				k := Key("cell", fmt.Sprint((w+round)%keys))
				want := testEntry((w + round) % keys)
				if err := c.Put(k, want); err != nil {
					errs <- err
					return
				}
				got, ok := c.Get(k)
				if !ok {
					errs <- fmt.Errorf("worker %d round %d: Get missed right after Put", w, round)
					return
				}
				if got.Report != want.Report || !sim.MetricsEqual(got.Metrics, want.Metrics) {
					errs <- fmt.Errorf("worker %d round %d: cache served wrong bytes", w, round)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := c.Stats(); s.Corrupt != 0 {
		t.Errorf("concurrent use produced %d corrupt reads (stats %+v)", s.Corrupt, s)
	}
}

func TestCodeVersionIsStableAndSpecific(t *testing.T) {
	t.Parallel()
	v1, v2 := CodeVersion(), CodeVersion()
	if v1 != v2 {
		t.Errorf("CodeVersion not stable within a process: %q vs %q", v1, v2)
	}
	// Under `go test` the executable is the test binary, which is
	// always hashable, so we must get a real digest, not the fallback.
	if len(v1) != 64 {
		t.Errorf("CodeVersion = %q, want a sha256 hex digest of the test binary", v1)
	}
}

func TestNewValidatesDir(t *testing.T) {
	t.Parallel()
	if _, err := New(""); err == nil {
		t.Error("New(\"\") succeeded, want error")
	}
	// A nested, not-yet-existing path is created on demand.
	dir := filepath.Join(t.TempDir(), "a", "b", "cache")
	if _, err := New(dir); err != nil {
		t.Errorf("New on a nested fresh path: %v", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("cache root was not created: %v", err)
	}
}

func TestCachesOnOneDirectoryServeEachOther(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, b := newCache(t, dir), newCache(t, dir)
	// Alternate writers, each reading the other's newest entry, so every
	// read past the first finds the other segment grown since its last
	// scan.
	for i := 0; i < 6; i++ {
		w, r := a, b
		if i%2 == 1 {
			w, r = b, a
		}
		k := Key("cell", fmt.Sprint(i))
		if err := w.Put(k, testEntry(i)); err != nil {
			t.Fatal(err)
		}
		wantEntry(t, r, k, testEntry(i))
	}
	for _, c := range []*Cache{a, b} {
		for i := 0; i < 6; i++ {
			wantEntry(t, c, Key("cell", fmt.Sprint(i)), testEntry(i))
		}
		if s := c.Stats(); s.Misses != 0 || s.Corrupt != 0 || s.Stores != 3 {
			t.Errorf("stats %+v, want 3 stores and only hits", s)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(versionDir(dir), "*"+segExt))
	if len(segs) != 2 {
		t.Errorf("%d segments, want one per writer: %v", len(segs), segs)
	}
}

func TestFreshCacheServesEarlierEntries(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := newCache(t, dir)
	for i := 0; i < 3; i++ {
		if err := c.Put(Key("cell", fmt.Sprint(i)), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	again := newCache(t, dir) // as after a restart
	if len(again.segs) != 0 {
		t.Fatalf("New opened %d segments, want none before the first Get", len(again.segs))
	}
	for i := 0; i < 3; i++ {
		wantEntry(t, again, Key("cell", fmt.Sprint(i)), testEntry(i))
	}
}

func TestOtherVersionsAreNeverOpened(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// One valid segment where every binary used to write, directly in
	// the root, and one in another binary's directory.
	root, other := Key("cell", "root"), Key("cell", "other")
	for _, seg := range []struct{ dir, key string }{
		{dir, root},
		{filepath.Join(dir, Key("another binary")), other},
	} {
		rec, _ := encodeEntry(nil, seg.key, testEntry(1))
		if err := os.MkdirAll(seg.dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(seg.dir, "old"+segExt), frameOf(rec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := newCache(t, dir)
	if _, ok := c.Get(Key("cell", "missing")); ok {
		t.Fatal("Get of an unstored key hit")
	}
	if len(c.segs) != 0 {
		t.Fatalf("a miss opened %d segments outside the version directory", len(c.segs))
	}
	for _, k := range []string{root, other} {
		if _, ok := c.Get(k); ok {
			t.Errorf("Get(%.16s…) served a record from outside the version directory", k)
		}
	}
}

func TestTornTailIsNeverServed(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	intact := newCache(t, dir)
	k1, k2, k3 := Key("cell", "1"), Key("cell", "2"), Key("cell", "3")
	if err := intact.Put(k1, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	// Another writer's segment: one complete frame, then the length of
	// a frame whose record never arrived, as a crash leaves it.
	rec2, _ := encodeEntry(nil, k2, testEntry(2))
	rec3, _ := encodeEntry(nil, k3, testEntry(3))
	frame3 := frameOf(rec3)
	torn := filepath.Join(versionDir(dir), "torn"+segExt)
	if err := os.WriteFile(torn, append(frameOf(rec2), frame3[:frameHead]...), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newCache(t, dir)
	if _, ok := c.Get(k3); ok {
		t.Fatal("Get served a record from behind a torn frame")
	}
	wantEntry(t, c, k2, testEntry(2))
	wantEntry(t, c, k1, testEntry(1))

	// A writer still mid-append: the frame completes in two steps, and
	// the record is served once it is whole.
	f, err := os.OpenFile(torn, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	half := frameHead + len(rec3)/2
	if _, err := f.Write(frame3[frameHead:half]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k3); ok {
		t.Fatal("Get served half a record")
	}
	if _, err := f.Write(frame3[half:]); err != nil {
		t.Fatal(err)
	}
	wantEntry(t, c, k3, testEntry(3))
	if s := c.Stats(); s.Corrupt != 0 {
		t.Errorf("an incomplete frame was counted as corruption: %+v", s)
	}
}

func TestFailedPutAbandonsSegment(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := newCache(t, dir)
	k := func(i int) string { return Key("cell", fmt.Sprint(i)) }
	for i := 0; i < 2; i++ {
		if err := c.Put(k(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Make the next write fail, as a full disk would: the writer's
	// segment is swapped for a read-only handle on the same file.
	ro, err := os.Open(c.w.path)
	if err != nil {
		t.Fatal(err)
	}
	c.w.f.Close()
	c.w.f = ro
	if err := c.Put(k(2), testEntry(2)); err == nil {
		t.Fatal("Put succeeded on a segment it cannot write")
	}
	wantEntry(t, c, k(0), testEntry(0))
	wantEntry(t, c, k(1), testEntry(1))
	if err := c.Put(k(2), testEntry(2)); err != nil {
		t.Fatalf("Put after a failed write: %v", err)
	}
	wantEntry(t, c, k(2), testEntry(2))
	if segs, _ := filepath.Glob(filepath.Join(versionDir(dir), "*"+segExt)); len(segs) != 2 {
		t.Errorf("%d segments, want the abandoned one and a new one", len(segs))
	}
	fresh := newCache(t, dir)
	for i := 0; i < 3; i++ {
		wantEntry(t, fresh, k(i), testEntry(i))
	}
}

// TestCloseReleasesFiles runs alone (not in parallel), so the
// process's open descriptors are the cache's and the runtime's only.
func TestCloseReleasesFiles(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(ents)
	}
	before := fds()
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		a, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		k := Key("cell", fmt.Sprint(round))
		if err := a.Put(k, testEntry(round)); err != nil {
			t.Fatal(err)
		}
		wantEntry(t, b, k, testEntry(round))
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := fds(); after != before {
		t.Errorf("%d open files before, %d after closing every cache", before, after)
	}
}
