package core

import (
	"fmt"
	"io"
	"strings"

	"autosec/internal/ext"
	"autosec/internal/sim"
)

// RunContext carries the observability plumbing of one experiment run:
// the seed, the typed metric sink, and the structured tracer. Both
// sinks may be nil, in which case every helper degrades to the exact
// legacy behaviour at no cost — experiments never need to nil-check.
type RunContext struct {
	// Seed is the deterministic simulation seed of this run.
	Seed int64
	// Metrics collects the typed values the run publishes (nil = off).
	Metrics *sim.MetricSet
	// Tracer receives structured trace events (nil = off).
	Tracer sim.Tracer
	// Pool is the worker budget replicate fan-out borrows idle slots
	// from (nil = every replicate loop runs serially). Shared with the
	// campaign runner so cells × replicates stay inside one global
	// -jobs budget.
	Pool *sim.WorkerPool

	rng *sim.RNG
}

// NewRunContext returns a context for one run at the given seed with
// structured capture disabled; tests and callers that want capture set
// Metrics and Tracer before running.
func NewRunContext(seed int64) *RunContext { return &RunContext{Seed: seed} }

// Table returns a report table bound to the run's metric sink: its
// numeric cells are published as typed metrics when the table renders.
func (rc *RunContext) Table(title string, headers ...string) *sim.Table {
	t := sim.NewTable(title, headers...)
	t.BindMetrics(rc.Metrics)
	return t
}

// Metric publishes one typed metric. Experiments call it alongside
// prose report lines that carry a number, so the typed stream — the
// only source of campaign aggregates — carries what the report shows.
func (rc *RunContext) Metric(name string, v float64) {
	rc.Metrics.Add(name, v)
}

// RNG returns the run's root random source, creating it on first use.
// Routing RNG construction through the context lets the run record a
// final draw-count checkpoint in the trace.
func (rc *RunContext) RNG() *sim.RNG {
	if rc.rng == nil {
		rc.rng = sim.NewRNG(rc.Seed)
	}
	return rc.rng
}

// Replicates fans n independent Monte-Carlo replicates out over the
// run's worker pool (serially when the pool is nil or fully busy). The
// per-replicate RNGs are forked from rng serially in index order and
// all replicates join before Replicates returns, so the run's output is
// bit-identical to the serial fork-per-iteration loop at every pool
// size. fn must draw randomness only from its own RNG and write only
// index-i state; in particular it must not touch rc's metric or trace
// sinks — publish after the join, in index order.
func (rc *RunContext) Replicates(n int, rng *sim.RNG, fn func(i int, rng *sim.RNG) error) error {
	return rc.Pool.Replicates(n, rng, fn)
}

// Kernel returns a simulation kernel seeded with the run's seed and
// wired to the run's tracer, so scheduled/executed events, metric
// samples, and RNG checkpoints land in the trace.
func (rc *RunContext) Kernel() *sim.Kernel {
	k := sim.NewKernel(rc.Seed)
	if rc.Tracer != nil {
		k.SetTracer(rc.Tracer)
	}
	return k
}

// RunResult is the structured outcome of one experiment run.
type RunResult struct {
	ID      string       `json:"id"`
	Title   string       `json:"title"`
	Source  string       `json:"source"`
	Seed    int64        `json:"seed"`
	Report  string       `json:"-"`
	Metrics []sim.Metric `json:"metrics"`
}

// WriteJSON writes the result as a stable, indented JSON document.
func (r *RunResult) WriteJSON(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"id\": %q,\n  \"title\": %q,\n  \"source\": %q,\n  \"seed\": %d,\n  \"metrics\": [",
		r.ID, r.Title, r.Source, r.Seed)
	for i, m := range r.Metrics {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n    {\"name\": %q, \"value\": %s}", m.Name, sim.FormatJSONNumber(m.Value))
	}
	if len(r.Metrics) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// RunOptions selects the observability sinks and the worker budget of
// RunExperimentResult.
type RunOptions struct {
	// Tracer, when non-nil, receives the run's structured trace.
	Tracer sim.Tracer
	// Pool, when non-nil, is the worker budget the run's replicate
	// loops borrow idle slots from. Nil runs every replicate loop
	// serially; the output is identical either way.
	Pool *sim.WorkerPool
}

// RunExperimentResult runs one experiment by id with structured metric
// capture (and optionally tracing) enabled, returning the report
// alongside the typed metrics. The trace is bracketed by run-start and
// run-end events; run-end carries the root RNG draw-count checkpoint.
func RunExperimentResult(id string, seed int64, opt RunOptions) (*RunResult, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	return RunResultOf(e, seed, opt)
}

// RunResultOf is RunExperimentResult for an Experiment value that need
// not be in the registry — the entry point for DSL scenarios compiled
// by internal/scenario, which run through the exact same observability
// and worker-pool plumbing as registry experiments.
func RunResultOf(e Experiment, seed int64, opt RunOptions) (*RunResult, error) {
	rc := NewRunContext(seed)
	rc.Metrics = sim.NewMetricSet()
	rc.Tracer = opt.Tracer
	rc.Pool = opt.Pool
	if rc.Tracer != nil {
		rc.Metrics.BindTrace(rc.Tracer, nil)
		rc.Tracer.Trace(sim.TraceEvent{Kind: "run-start", Name: e.ID, Value: float64(seed)})
	}
	report, err := e.Run(rc)
	if err != nil {
		return nil, err
	}
	if rc.Tracer != nil {
		var draws uint64
		if rc.rng != nil {
			draws = rc.rng.Draws()
		}
		rc.Tracer.Trace(sim.TraceEvent{Kind: "run-end", Name: e.ID, Draws: draws})
	}
	return &RunResult{ID: e.ID, Title: e.Title, Source: e.Source, Seed: seed,
		Report: report, Metrics: rc.Metrics.Metrics()}, nil
}

// lookup finds a registry experiment by id; an unknown id gets an
// error that lists up to three near-miss registry ids, so CLI typos are
// self-diagnosing.
func lookup(id string) (Experiment, error) {
	exps := Experiments()
	for _, e := range exps {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q%s — run 'avsec list' for all ids", id, ext.DidYouMean(id, ids))
}
