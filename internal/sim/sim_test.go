package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelOrdersEventsByTime(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.Schedule(30, "c", func(*Kernel) { got = append(got, "c") })
	k.Schedule(10, "a", func(*Kernel) { got = append(got, "a") })
	k.Schedule(20, "b", func(*Kernel) { got = append(got, "b") })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAmongEqualTimestamps(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, "e", func(*Kernel) { got = append(got, i) })
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", got)
		}
	}
}

func TestKernelAfterSchedulesRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.Schedule(100, "outer", func(k *Kernel) {
		k.After(50, "inner", func(k *Kernel) { at = k.Now() })
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Errorf("inner ran at %v, want 150", at)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(100, "x", func(k *Kernel) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Schedule(50, "past", func(*Kernel) {})
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(10, "x", func(*Kernel) { fired = true })
	k.Cancel(e)
	k.Cancel(e) // double-cancel is a no-op
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event still fired")
	}
}

func TestKernelHorizonStopsEarly(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(1000, "late", func(*Kernel) { fired = true })
	if err := k.Run(500); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event past horizon fired")
	}
	if k.Now() != 500 {
		t.Errorf("Now = %v, want horizon 500", k.Now())
	}
}

func TestKernelHorizonKeepsEventPending(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(1000, "late", func(*Kernel) { fired = true })
	if err := k.Run(500); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event past horizon fired early")
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after bounded Run, want 1 (event must stay queued)", k.Pending())
	}
	if err := k.Run(2000); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event dropped by earlier bounded Run; it must fire once the horizon allows")
	}
	if k.Now() != 1000 {
		t.Errorf("Now = %v, want 1000", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), "e", func(k *Kernel) {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("processed %d events after Stop, want 3", count)
	}
}

func TestKernelEventLimit(t *testing.T) {
	k := NewKernel(1)
	k.SetEventLimit(5)
	var loop func(k *Kernel)
	loop = func(k *Kernel) { k.After(1, "loop", loop) }
	k.After(1, "loop", loop)
	if err := k.Run(0); err == nil {
		t.Error("runaway schedule did not hit event limit")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == r.Uint64() {
		t.Error("zero-seeded RNG appears constant")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered %d values in 1000 draws", len(seen))
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestRNGNormFillMatchesNormFloat64 pins the bulk and scalar normal
// generators to one stream: any slicing of the sequence into NormFill
// chunks, or interleaving with NormFloat64 calls, must reproduce the
// per-call sequence bit for bit.
func TestRNGNormFillMatchesNormFloat64(t *testing.T) {
	const total = 257
	ref := NewRNG(21)
	want := make([]float64, total)
	for i := range want {
		want[i] = ref.NormFloat64()
	}
	for _, chunks := range [][]int{{total}, {1, 2, 3, 251}, {7, 7, 7, 236}, {256, 1}, {2, 255}} {
		r := NewRNG(21)
		got := make([]float64, 0, total)
		for _, n := range chunks {
			buf := make([]float64, n)
			r.NormFill(buf)
			got = append(got, buf...)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("chunks %v: sample %d = %v, want %v", chunks, i, got[i], want[i])
			}
		}
	}
	// Interleaving scalar and bulk calls continues the same stream.
	r := NewRNG(21)
	got := make([]float64, 0, total)
	for len(got) < total {
		if len(got)%3 == 0 {
			got = append(got, r.NormFloat64())
		} else {
			buf := make([]float64, 5)
			r.NormFill(buf)
			got = append(got, buf...)
		}
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("interleaved: sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	r2 := NewRNG(21)
	r2.NormFill(nil)
	if r2.Draws() != 0 {
		t.Error("NormFill(nil) consumed draws")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(5)
	child := r.Fork()
	// Parent continues a different stream than the child.
	diff := false
	for i := 0; i < 10; i++ {
		if r.Uint64() != child.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Error("forked stream identical to parent")
	}
}

func TestRNGBytesFillsAll(t *testing.T) {
	r := NewRNG(13)
	b := make([]byte, 37)
	r.Bytes(b)
	zero := 0
	for _, v := range b {
		if v == 0 {
			zero++
		}
	}
	if zero == len(b) {
		t.Error("Bytes left buffer all zero")
	}
}

func TestMetricsCountersAndSeries(t *testing.T) {
	m := NewMetrics()
	m.Inc("frames", 3)
	m.Inc("frames", 2)
	if got := m.Counter("frames"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	for i := 1; i <= 100; i++ {
		m.Observe("lat", float64(i))
	}
	s := m.Summarize("lat")
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean < 50 || s.Mean > 51 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
	if s.P50 < 49 || s.P50 > 52 {
		t.Errorf("p50 = %v", s.P50)
	}
}

func TestMetricsEmptySummary(t *testing.T) {
	m := NewMetrics()
	if s := m.Summarize("missing"); s.N != 0 {
		t.Errorf("empty series summary N = %d", s.N)
	}
}

func TestMetricsStringStableOrder(t *testing.T) {
	m := NewMetrics()
	m.Inc("b", 1)
	m.Inc("a", 1)
	m.Observe("z", 1)
	m.Observe("y", 1)
	if m.String() != m.String() {
		t.Error("String not stable")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 2.5)
	out := tb.String()
	if out == "" || tb.Rows() != 2 {
		t.Fatalf("unexpected table: %q", out)
	}
	for _, want := range []string{"demo", "alpha", "2.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
