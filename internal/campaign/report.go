package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"autosec/internal/sim"
)

// MetricSummary is one metric aggregated across a campaign's seeds.
type MetricSummary struct {
	Name string
	Agg  sim.Agg
}

// ExperimentSummary aggregates every typed metric of one experiment
// across all seeds it ran at.
type ExperimentSummary struct {
	ID      string
	Runs    int // successful cells, whether or not they published metrics
	Metrics []MetricSummary
}

// Summaries merges each experiment's typed sim.Metric values across
// seeds; a cell that published no metrics counts as a run and adds no
// rows. Metric order follows first appearance in seed order, so the
// output is a pure function of the collected cells — independent of
// how many workers produced them.
func (r *Result) Summaries() []ExperimentSummary {
	out := make([]ExperimentSummary, 0, len(r.IDs))
	for i, id := range r.IDs {
		es := ExperimentSummary{ID: id}
		index := map[string]int{}
		for j := range r.Seeds {
			c := r.Cell(i, j)
			if c.Err != nil {
				continue
			}
			es.Runs++
			for _, m := range c.Metrics {
				k, ok := index[m.Name]
				if !ok {
					k = len(es.Metrics)
					index[m.Name] = k
					es.Metrics = append(es.Metrics, MetricSummary{Name: m.Name})
				}
				es.Metrics[k].Agg.Add(m.Value)
			}
		}
		out = append(out, es)
	}
	return out
}

// RenderSummary renders the campaign's aggregate tables: a one-line
// header with grid and self-check totals, then one min/mean/max/spread
// table per experiment. The output contains no wall-clock data and is
// byte-identical for any worker count.
func (r *Result) RenderSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d experiments × %d seeds = %d cells, %d rechecked, %d divergences\n",
		len(r.IDs), len(r.Seeds), len(r.Cells), r.Rechecked(), r.Divergences())
	for _, es := range r.Summaries() {
		b.WriteByte('\n')
		tb := sim.NewTable(fmt.Sprintf("campaign — %s (%d/%d runs)", es.ID, es.Runs, len(r.Seeds)),
			"metric", "n", "min", "mean", "max", "spread")
		for _, m := range es.Metrics {
			tb.AddRow(m.Name, m.Agg.N(),
				sim.FormatG(m.Agg.Min()), sim.FormatG(m.Agg.Mean()),
				sim.FormatG(m.Agg.Max()), sim.FormatG(m.Agg.Spread()))
		}
		b.WriteString(tb.String())
	}
	return b.String()
}

// SlowestCells returns the n cells with the largest primary-execution
// wall time, slowest first, ties broken by grid order. Wall-clock data
// never feeds the deterministic tables; this accessor exists for the
// timing diagnostics on stderr and the opt-in JSON timing section.
func (r *Result) SlowestCells(n int) []*CellResult {
	idx := make([]int, len(r.Cells))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Cells[idx[a]].Elapsed > r.Cells[idx[b]].Elapsed
	})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]*CellResult, 0, n)
	for _, i := range idx[:n] {
		out = append(out, &r.Cells[i])
	}
	return out
}

// RenderTimings renders a one-line wall-clock diagnosis: campaign total
// and the n slowest cells. Unlike RenderSummary this is explicitly
// non-deterministic (it exists to spot stragglers and feed CostHint
// tables), so callers must keep it out of any output that is compared
// across runs — the CLI prints it to stderr only.
func (r *Result) RenderTimings(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "timing: %d cells in %v wall; slowest:", len(r.Cells), r.Elapsed.Round(time.Millisecond))
	for i, c := range r.SlowestCells(n) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %s seed %d (%v)", c.ID, c.Seed, c.Elapsed.Round(time.Millisecond))
	}
	b.WriteByte('\n')
	return b.String()
}

// jsonSummary mirrors ExperimentSummary with flattened aggregates for
// machine consumption.
type jsonSummary struct {
	ID      string       `json:"id"`
	Runs    int          `json:"runs"`
	Metrics []jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
}

// jsonTiming is one cell's wall time in the opt-in timing section.
type jsonTiming struct {
	ID        string  `json:"id"`
	Seed      int64   `json:"seed"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// WriteJSON writes the campaign's aggregate results as one indented
// JSON document: the grid shape, the self-check totals, and the
// per-experiment metric aggregates. Like RenderSummary, the output
// contains no wall-clock data and is byte-identical for any worker
// count.
func (r *Result) WriteJSON(w io.Writer) error {
	return r.writeJSON(w, false)
}

// WriteJSONWithTimings is WriteJSON plus a "timings" section carrying
// every cell's wall time in grid order. The section is opt-in because
// it breaks the byte-identity the plain document guarantees.
func (r *Result) WriteJSONWithTimings(w io.Writer) error {
	return r.writeJSON(w, true)
}

func (r *Result) writeJSON(w io.Writer, timings bool) error {
	doc := struct {
		Experiments []string      `json:"experiments"`
		Seeds       []int64       `json:"seeds"`
		Cells       int           `json:"cells"`
		Rechecked   int           `json:"rechecked"`
		Divergences int           `json:"divergences"`
		Summaries   []jsonSummary `json:"summaries"`
		Timings     []jsonTiming  `json:"timings,omitempty"`
	}{
		Experiments: r.IDs,
		Seeds:       r.Seeds,
		Cells:       len(r.Cells),
		Rechecked:   r.Rechecked(),
		Divergences: r.Divergences(),
	}
	for _, es := range r.Summaries() {
		js := jsonSummary{ID: es.ID, Runs: es.Runs, Metrics: []jsonMetric{}}
		for _, m := range es.Metrics {
			js.Metrics = append(js.Metrics, jsonMetric{
				Name: m.Name, N: m.Agg.N(),
				Min: m.Agg.Min(), Mean: m.Agg.Mean(),
				Max: m.Agg.Max(), Spread: m.Agg.Spread(),
			})
		}
		doc.Summaries = append(doc.Summaries, js)
	}
	if timings {
		for i := range r.Cells {
			c := &r.Cells[i]
			doc.Timings = append(doc.Timings, jsonTiming{
				ID: c.ID, Seed: c.Seed,
				ElapsedMS: float64(c.Elapsed) / float64(time.Millisecond),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
