package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median has 9 samples beyond it
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true}, // p95 has 9 beyond
		{200, 95, true},
		{999, 95, true}, // p99 has 9 beyond
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("highestTail(%d) = p%v with only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
	if got := percentile(s, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("relSpread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "campaign", Start: 0, End: 100 * ms},
		// Two parallel cells overlapping on [20, 40), and one that runs
		// past the parent's end: covered is [10, 60) ∪ [90, 100).
		{ID: 2, Parent: 1, Layer: "core", Group: "exp-ca", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Layer: "core", Group: "rest", Start: 20 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Layer: "core", Group: "rest", Start: 90 * ms, End: 120 * ms},
		// A grandchild inside cell 3.
		{ID: 5, Parent: 3, Layer: "server", Start: 30 * ms, End: 50 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40 * ms, 2: 30 * ms, 3: 20 * ms, 4: 30 * ms, 5: 20 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}

	rows := attribution(spans)
	total := 140.0 // ms of self time
	shares := make(map[string]float64)
	for _, r := range rows {
		shares[r.Layer+"/"+r.Group] = r.Share
	}
	for k, w := range map[string]float64{"core/": 80 / total, "core/rest": 50 / total, "core/exp-ca": 30 / total, "campaign/": 40 / total, "server/": 20 / total} {
		if math.Abs(shares[k]-w) > 1e-12 {
			t.Errorf("share %s = %v, want %v", k, shares[k], w)
		}
	}
	if rows[0].Layer != "core" || rows[0].Group != "" {
		t.Errorf("first row = %+v, want the core layer total", rows[0])
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	pairs := func(old, new []float64) [][2]float64 {
		var p [][2]float64
		for i := range old {
			p = append(p, [2]float64{old[i], new[i]})
		}
		return p
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		old, new     []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same runs", base, base, false, 0.1, verdictSame},
		{"faster", base, scale(0.8), false, 0.1, verdictGain},
		{"higher throughput", base, scale(1.2), true, 0.1, verdictGain},
		{"slower past bound", base, scale(1.2), false, 0.1, verdictRegression},
		{"slower within bound", base, scale(1.05), false, 0.1, verdictSame},
		// Better by less than the parent's IQR is not a gain.
		{"small gain", base, scale(0.995), false, 0.1, verdictSame},
		{"spread over bound", noisy, noisy, false, 0.1, verdictUnresolved},
		{"noisy but every run better", noisy, []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, false, 0.1, verdictGain},
	} {
		got := compareRuns(c.old, c.new, pairs(c.old, c.new), c.higherBetter, c.bound)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	// Ties count for neither side: 8 wins of 10 pairs is not 9/10.
	old := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	new := []float64{5, 5, 5, 5, 5, 5, 5, 5, 10, 10}
	if got := compareRuns(old, new, pairs(old, new), false, 0.25); got.Wins != 8 || got.Verdict != verdictSame {
		t.Errorf("ties: wins %d verdict %q, want 8 and %q", got.Wins, got.Verdict, verdictSame)
	}
}

func TestCalmLeavesOutStolenPasses(t *testing.T) {
	ps := []*passOut{{k: 0, steal: 0}, {k: 1, steal: stealLimit}, {k: 2, steal: 0.3}, {k: 3, steal: 0.004}}
	var kept []int
	for _, p := range calm(ps) {
		kept = append(kept, p.k)
	}
	if len(kept) != 3 || kept[0] != 0 || kept[1] != 1 || kept[2] != 3 {
		t.Errorf("calm kept passes %v, want [0 1 3]", kept)
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []map[string]any, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i]["name"] != w.name || got[i]["unit"] != w.unit || got[i]["better"] != w.better {
				t.Errorf("%s[%d] = %v, want %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, layerMetrics)
}
