package sim

import (
	"bytes"
	"strings"
	"testing"
)

func TestMetricSetNamingAndOrder(t *testing.T) {
	t.Parallel()
	ms := NewMetricSet()
	ms.Add("x", 1)
	ms.Add("y", 2)
	ms.Add("x", 3)
	ms.Add("x", 4)
	got := ms.Metrics()
	want := []Metric{{"x", 1}, {"y", 2}, {"x#2", 3}, {"x#3", 4}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMetricSetNilSafe(t *testing.T) {
	t.Parallel()
	var ms *MetricSet
	ms.Add("ignored", 1) // must not panic
	if ms.Metrics() != nil {
		t.Fatal("nil MetricSet must be inert")
	}
}

func TestMetricSetJSONAndCSV(t *testing.T) {
	t.Parallel()
	ms := NewMetricSet()
	ms.Add("plain", 1.5)
	ms.Add("with,comma", 2)
	var cs bytes.Buffer
	if err := WriteMetricsCSV(&cs, ms.Metrics()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cs.String()), "\n")
	if len(lines) != 3 || lines[0] != "name,value" || lines[1] != "plain,1.5" || lines[2] != `"with,comma",2` {
		t.Fatalf("CSV = %q", cs.String())
	}
}

func TestBoundTablePublishesRenderedCells(t *testing.T) {
	t.Parallel()
	ms := NewMetricSet()
	tb := NewTable("t", "scenario", "delivered", "p50", "note")
	tb.BindMetrics(ms)
	tb.AddRow("base", "95/100", 301.05, "text")
	tb.AddRow("s1", "100/100", 344.5, "-")
	_ = tb.String()
	_ = tb.String() // second render must not duplicate
	got := ms.Metrics()
	want := []Metric{
		{"base/delivered", 0.95}, {"base/p50", 301.05},
		{"s1/delivered", 1}, {"s1/p50", 344.5},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Name != want[i].Name || !closeEnough(got[i].Value, want[i].Value) {
			t.Errorf("metric %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestParseMetricNumber(t *testing.T) {
	t.Parallel()
	cases := []struct {
		tok string
		v   float64
		ok  bool
	}{
		{"166.4", 166.4, true},
		{"166.400", 166.4, true},
		{"2.33e-10", 2.33e-10, true},
		{"1.00e-04,", 1e-4, true},
		{"-0.042", -0.042, true},
		{"40/40", 1, true},
		{"0/40", 0, true},
		{"3/4", 0.75, true},
		{"(3),", 3, true},
		{"(21)", 21, true},
		{"-", 0, false},
		{"", 0, false},
		{"yes", 0, false},
		{"e.g.", 0, false},
		{"V2X", 0, false},
		{"10B-T1S", 0, false},
		{"a/b", 0, false},
		{"1/0", 0, false},
	}
	for _, c := range cases {
		v, ok := ParseMetricNumber(c.tok)
		if ok != c.ok || (ok && !closeEnough(v, c.v)) {
			t.Errorf("ParseMetricNumber(%q) = %v,%v want %v,%v", c.tok, v, ok, c.v, c.ok)
		}
	}
}
