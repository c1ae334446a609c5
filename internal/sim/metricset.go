package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Metric is one named numeric observation published by an experiment.
// It is the typed counterpart of a number appearing in a report: rate
// cells of the form "a/b" are published as the fraction a/b so that
// attack-success and delivery rates aggregate naturally across seeds.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// MetricSet is an ordered collection of typed metrics. A name repeated
// within one set gets a "#2", "#3", ... suffix, so metrics align
// one-to-one across seeds of the same experiment. The zero value and
// the nil pointer are both usable; Add on a nil set is a no-op, which
// is the zero-cost path when structured capture is disabled.
type MetricSet struct {
	metrics []Metric
	seen    map[string]int
	tracer  Tracer
	now     func() Time
}

// NewMetricSet returns an empty set.
func NewMetricSet() *MetricSet { return &MetricSet{} }

// BindTrace mirrors every subsequent Add into tr as a "metric" trace
// event, stamped with now() if non-nil.
func (ms *MetricSet) BindTrace(tr Tracer, now func() Time) {
	if ms == nil {
		return
	}
	ms.tracer = tr
	ms.now = now
}

// Add publishes one metric. Repeated names get an ordinal suffix.
func (ms *MetricSet) Add(name string, v float64) {
	if ms == nil {
		return
	}
	if ms.seen == nil {
		ms.seen = make(map[string]int)
	}
	ms.seen[name]++
	if n := ms.seen[name]; n > 1 {
		name += "#" + strconv.Itoa(n)
	}
	ms.metrics = append(ms.metrics, Metric{Name: name, Value: v})
	if ms.tracer != nil {
		var t Time
		if ms.now != nil {
			t = ms.now()
		}
		ms.tracer.Trace(TraceEvent{T: t, Kind: "metric", Name: name, Value: v})
	}
}

// Metrics returns the published metrics in publication order.
func (ms *MetricSet) Metrics() []Metric {
	if ms == nil {
		return nil
	}
	return append([]Metric(nil), ms.metrics...)
}

// WriteMetricsCSV writes metrics as "name,value" CSV rows with a
// header. Names containing commas or quotes are quoted per RFC 4180.
func WriteMetricsCSV(w io.Writer, metrics []Metric) error {
	if _, err := io.WriteString(w, "name,value\n"); err != nil {
		return err
	}
	for _, m := range metrics {
		name := m.Name
		if strings.ContainsAny(name, ",\"\n") {
			name = `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
		}
		if _, err := fmt.Fprintf(w, "%s,%s\n", name, FormatJSONNumber(m.Value)); err != nil {
			return err
		}
	}
	return nil
}

// MetricsEqual reports exact equality of two metric streams — same
// names, same order, bit-identical values. The determinism contract
// promises bit-identical metrics, not approximate ones, so this is the
// one shared definition of "the same stream" used by the campaign
// recheck, the result cache, and the daemon cross-checks.
func MetricsEqual(a, b []Metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FormatJSONNumber renders v the way encoding/json does, so CSV and
// JSON exports of the same metric are textually consistent.
func FormatJSONNumber(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// ParseMetricNumber parses a report token as a metric value: a plain
// float ("166.4", "2.33e-10") or an integer rate "a/b" (returned as the
// fraction a/b). Surrounding punctuation from prose ("(", "),", "×",
// ...) is stripped; tokens that are not purely numeric ("V2X",
// "10B-T1S", "-") are rejected. Table capture uses it on every cell, so
// what counts as a number is decided by the rendered text.
func ParseMetricNumber(tok string) (float64, bool) {
	tok = strings.Trim(tok, "(){}[],;:×%")
	if tok == "" {
		return 0, false
	}
	if num, den, ok := strings.Cut(tok, "/"); ok {
		a, errA := strconv.ParseInt(num, 10, 64)
		b, errB := strconv.ParseInt(den, 10, 64)
		if errA != nil || errB != nil || b <= 0 {
			return 0, false
		}
		return float64(a) / float64(b), true
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
