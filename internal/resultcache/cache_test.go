package resultcache

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
			c, err := New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
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
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Report: "r", Metrics: []sim.Metric{{Name: "nan", Value: math.NaN()}}}
	if err := c.Put(Key("k"), e); err == nil {
		t.Error("Put with a NaN metric succeeded, want error")
	}
	if _, ok := c.Get(Key("k")); ok {
		t.Error("rejected Put left a readable entry behind")
	}
}

// entryFile locates the single cache file under the root, failing if
// the layout assumption (dir/<shard>/<key>.entry) breaks.
func entryFile(t *testing.T, c *Cache, key string) string {
	t.Helper()
	path := filepath.Join(c.Dir(), key[:2], key+".entry")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("expected entry file: %v", err)
	}
	return path
}

func TestCorruptionIsDetectedDeletedAndCounted(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"flipped payload byte", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a byte inside the body's report text, past the
			// magic, the key and the checksum, so only the checksum
			// can catch it.
			i := strings.Index(string(data), "report")
			if i < len(entryMagic)+64+sha256.Size {
				t.Fatalf("report text not found in the body (index %d)", i)
			}
			data[i] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped magic byte", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[0] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"resealed body with a trailing byte", func(t *testing.T, path string) {
			// The checksum matches the new body, so only the body
			// decoder can refuse the extra byte.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bodyAt := len(entryMagic) + 64 + sha256.Size
			data = append(data, 0)
			sum := sha256.Sum256(data[bodyAt:])
			copy(data[bodyAt-sha256.Size:], sum[:])
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated file", func(t *testing.T, path string) {
			if err := os.Truncate(path, 10); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty file", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"entry renamed onto the wrong key", func(t *testing.T, path string) {
			// Keep the file internally consistent but serve it under a
			// different address: the embedded-key check must refuse.
			other := Key("some", "other", "cell")
			dst := filepath.Join(filepath.Dir(filepath.Dir(path)), other[:2], other+".entry")
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(path, dst); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c, err := New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := Key("exp-ids", "7", "v1")
			if err := c.Put(key, testEntry(1)); err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, c, key)
			tc.corrupt(t, path)

			lookup := key
			if tc.name == "entry renamed onto the wrong key" {
				lookup = Key("some", "other", "cell")
			}
			if _, ok := c.Get(lookup); ok {
				t.Fatal("Get served a corrupt entry")
			}
			if s := c.Stats(); s.Corrupt != 1 {
				t.Errorf("corrupt count = %d, want 1 (stats %+v)", s.Corrupt, s)
			}
			// The damaged file is gone: the next Get is a plain miss.
			if _, ok := c.Get(lookup); ok {
				t.Fatal("corrupt entry survived its detection")
			}
			if s := c.Stats(); s.Corrupt != 1 {
				t.Errorf("second Get re-counted corruption: %+v", s)
			}
		})
	}
}

func TestConcurrentAccess(t *testing.T) {
	t.Parallel()
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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
					continue // another writer may be mid-rename; a miss is legal, wrong bytes are not
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
