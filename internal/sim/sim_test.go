package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
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
	if len(k.queue) != 1 {
		t.Fatalf("%d events queued after bounded Run, want 1 (event must stay queued)", len(k.queue))
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

// TestMetricsCountersAndSeries checks that Count and Sample trace
// "counter" and "series" events stamped with the kernel's virtual time,
// in call order.
func TestMetricsCountersAndSeries(t *testing.T) {
	tr := newRingTracer(8)
	k := NewKernel(1)
	k.SetTracer(tr)
	k.Schedule(10, "e", func(k *Kernel) {
		k.Count("frames", 3)
		k.Sample("lat", 2.5)
		k.Count("frames", 2)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	var got []TraceEvent
	for _, ev := range tr.Events() {
		if ev.Kind == "counter" || ev.Kind == "series" {
			got = append(got, ev)
		}
	}
	want := []TraceEvent{
		{T: 10, Kind: "counter", Name: "frames", Value: 3},
		{T: 10, Kind: "series", Name: "lat", Value: 2.5},
		{T: 10, Kind: "counter", Name: "frames", Value: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("traced %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMetricsEmptySummary checks that Count and Sample on an untraced
// kernel are no-ops: the kernel keeps no metric state of its own.
func TestMetricsEmptySummary(t *testing.T) {
	k := NewKernel(1)
	k.Count("frames", 1)
	k.Sample("lat", 1)
	if k.tracer != nil || len(k.queue) != 0 || k.rng.Draws() != 0 {
		t.Errorf("untraced Count/Sample changed the kernel: %+v", k)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 2.5)
	out := tb.String()
	if out == "" || len(tb.rows) != 2 {
		t.Fatalf("unexpected table: %q", out)
	}
	for _, want := range []string{"demo", "alpha", "2.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// renderTableRef is the fmt-based renderer Table replaced: %.3f for
// float64, %v for every other cell, %-*s to pad.
func renderTableRef(title string, headers []string, rows [][]any) string {
	cells := make([][]string, len(rows))
	for r, row := range rows {
		for _, c := range row {
			if v, ok := c.(float64); ok {
				cells[r] = append(cells[r], fmt.Sprintf("%.3f", v))
			} else {
				cells[r] = append(cells[r], fmt.Sprint(c))
			}
		}
	}
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
	}
	for _, row := range cells {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "== %s ==\n", title)
	}
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// TestTableMatchesFmtReference pins Table's strconv rendering to the
// fmt reference byte for byte: multi-byte runes (padded by rune count
// against byte-length widths), cells wider than the padding runs,
// special floats, short rows and cell types that still go through %v.
func TestTableMatchesFmtReference(t *testing.T) {
	headers := []string{"metric", "n", "value", "note"}
	rows := [][]any{
		{"alpha", 1, 2.5, "ok"},
		{"beta × gamma", -42, -0.0, "—"},
		{"nan", 0, math.NaN(), true},
		{"inf", math.MaxInt64, math.Inf(1), int64(7)},
		{"-inf", math.MinInt64, math.Inf(-1), uint8(3)},
		{"huge", 3, 1e300, strings.Repeat("×", 40)},
		{"tiny", 4, 0.0004999, float32(1.5)},
		{"round", 5, 2.0005},
		{"short"},
		{},
	}
	for _, title := range []string{"", "demo — ×"} {
		tb := NewTable(title, headers...)
		for _, row := range rows {
			tb.AddRow(row...)
		}
		if got, want := tb.String(), renderTableRef(title, headers, rows); got != want {
			t.Errorf("title %q:\n got %q\nwant %q", title, got, want)
		}
	}
}
