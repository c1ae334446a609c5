// Package campaign runs multi-seed experiment campaigns: it fans an
// (experiment, seed) grid out over a bounded worker pool, collects the
// per-run reports and timings, aggregates rate-style metrics across
// seeds, and — crucially — double-executes a configurable fraction of
// cells with the same seed, failing loudly on any byte-level report
// divergence. That turns the sim kernel's "same seed ⇒ identical
// output" contract from a comment into a continuously exercised
// invariant.
//
// The package is deliberately generic: it depends only on a RunFunc
// (id, seed) → report, so the experiment registry in internal/core, a
// test stub, or any future workload can be campaigned identically. All
// rendered output is a pure function of the collected reports, so the
// aggregate tables are byte-identical regardless of the worker count.
//
// Drives `avsec all` and `avsec campaign` over every registry
// experiment; the typed-vs-scraped cross-check test pins both
// aggregation paths to each other.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"autosec/internal/sim"
)

// RunFunc produces the report of one experiment at one seed. It must be
// safe for concurrent use: the pool calls it from many goroutines.
type RunFunc func(id string, seed int64) (string, error)

// TypedRunFunc produces both the report and the run's typed metrics.
// Campaigns prefer it over RunFunc when set: aggregation then consumes
// structured sim.Metric values instead of scraping the report text.
// It must be safe for concurrent use.
type TypedRunFunc func(id string, seed int64) (string, []sim.Metric, error)

// defaultRecheckSeed drives the deterministic selection of which cells
// get the double-execution self-check. Fixed so that a given grid always
// rechecks the same cells, independent of worker count or wall clock.
const defaultRecheckSeed int64 = 0x5EEDC4EC

// Spec describes a campaign.
type Spec struct {
	// IDs are the experiment identifiers, in presentation order.
	IDs []string
	// Seeds are the simulation seeds each experiment runs at.
	Seeds []int64
	// Jobs bounds the worker pool; <= 0 means GOMAXPROCS.
	Jobs int
	// Recheck is the fraction of grid cells in [0, 1] that are executed
	// twice with the same seed for the determinism self-check. When
	// positive, at least one cell is always rechecked.
	Recheck float64
	// RecheckSeed seeds the cell-selection RNG; 0 uses a fixed default.
	RecheckSeed int64
	// Run executes one cell. Required unless RunTyped is set.
	Run RunFunc
	// RunTyped, when non-nil, is used instead of Run and additionally
	// yields the run's typed metrics, which aggregation prefers over
	// report scraping (the scraper remains the fallback for cells
	// without typed metrics).
	RunTyped TypedRunFunc
	// OnCell, when non-nil, is called from Run's goroutine for every
	// completed cell in grid order (experiment-major, then seed), as soon
	// as the cell and all its predecessors have finished. This gives
	// callers streaming, ordered output from an out-of-order pool.
	OnCell func(CellResult)
	// CostHint, when non-nil, returns a relative cost rank for an
	// experiment id (higher = slower). The pool dispatches
	// highest-cost-first so a long cell starts early instead of
	// straggling alone at the end of the campaign. Purely a scheduling
	// hint: results, streaming order, and rendered output are identical
	// for any hint (or none).
	CostHint func(id string) int
	// Context, when non-nil, cancels the campaign: cells (or recheck
	// executions) that have not started when it is done are skipped
	// with the context's error
	// instead of executed, so the pool drains promptly (bounded by the
	// cells already in flight — a running cell is pure computation and
	// finishes). Run still returns the full grid; skipped cells carry
	// their error like any other failed cell.
	Context context.Context
	// Pool, when non-nil, is the global worker budget the campaign
	// shares with intra-cell replicate fan-out: each cell holds one
	// slot for its whole execution, so nested sim.Replicates calls
	// inside the cell can only borrow slots that are currently idle.
	// Size it to Jobs (and route the same pool into the RunFunc, e.g.
	// via core.RunOptions.Pool) to keep the two-level cells ×
	// replicates parallelism inside one -jobs budget; once the grid
	// drains to a last straggler cell, the idle workers' slots are
	// donated to that cell's replicate loops. Purely a scheduling
	// device: rendered output is identical with or without it.
	Pool *sim.WorkerPool
}

// CellResult is the outcome of one (experiment, seed) run.
type CellResult struct {
	ID     string
	Seed   int64
	Report string
	// Metrics holds the run's typed metrics when the campaign ran with
	// a TypedRunFunc; nil means aggregation falls back to scraping.
	Metrics []sim.Metric
	Err     error
	// Elapsed is the wall time of the primary execution (reporting only;
	// it never feeds rendered tables, which must stay deterministic).
	Elapsed time.Duration
	// Rechecked reports whether the determinism self-check re-ran this
	// cell; Diverged is set when the two reports differ, and
	// RecheckReport then holds the second, conflicting report.
	// MetricsDiverged is set when the reports agree but the typed
	// metric streams do not — a contract violation the scraper path
	// could never observe.
	Rechecked       bool
	Diverged        bool
	MetricsDiverged bool
	RecheckReport   string
}

// Result is a completed campaign.
type Result struct {
	IDs   []string
	Seeds []int64
	// Cells holds every outcome in grid order: Cells[i*len(Seeds)+j] is
	// experiment IDs[i] at seed Seeds[j].
	Cells []CellResult
	// Elapsed is the campaign wall time (reporting only).
	Elapsed time.Duration
}

// DivergenceError reports a violated determinism contract: the same
// (experiment, seed) cell produced two different reports.
type DivergenceError struct {
	ID            string
	Seed          int64
	First, Second string
}

func (e *DivergenceError) Error() string {
	off := 0
	for off < len(e.First) && off < len(e.Second) && e.First[off] == e.Second[off] {
		off++
	}
	return fmt.Sprintf("campaign: determinism violation: %s seed %d produced diverging reports (first difference at byte %d: %q vs %q)",
		e.ID, e.Seed, off, excerpt(e.First, off), excerpt(e.Second, off))
}

// excerpt returns a short window of s around offset off for diagnostics.
func excerpt(s string, off int) string {
	end := off + 24
	if end > len(s) {
		end = len(s)
	}
	return s[off:end]
}

// Seeds returns n consecutive seeds starting at base, the conventional
// seed schedule for `avsec campaign`.
func Seeds(base int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = base + int64(i)
	}
	return s
}

// SelectRechecks returns the deterministic recheck mask for a grid of n
// cells in grid order: mask[i] is true when cell i is double-executed
// by the determinism self-check. seed 0 uses the fixed default, so the
// same (grid size, fraction) always selects the same cells — the
// property that lets a distributed coordinator (internal/fleet)
// reproduce exactly the cells a serial campaign.Run would recheck and
// keep its rendered header byte-identical. When fraction is positive,
// at least one cell is always selected.
func SelectRechecks(n int, fraction float64, seed int64) []bool {
	mask := make([]bool, n)
	if fraction <= 0 || n == 0 {
		return mask
	}
	if seed == 0 {
		seed = defaultRecheckSeed
	}
	rng := sim.NewRNG(seed)
	any := false
	for i := range mask {
		if rng.Bool(fraction) {
			mask[i] = true
			any = true
		}
	}
	if !any {
		mask[0] = true
	}
	return mask
}

// Run executes the campaign grid. It always returns the full Result
// (every cell that ran, in grid order); the error joins every cell
// failure and every determinism divergence, so a non-nil error means
// the campaign must not be trusted.
func Run(spec Spec) (*Result, error) {
	if spec.Run == nil && spec.RunTyped == nil {
		return nil, errors.New("campaign: Spec.Run or Spec.RunTyped is required")
	}
	if len(spec.IDs) == 0 {
		return nil, errors.New("campaign: no experiment ids")
	}
	if len(spec.Seeds) == 0 {
		return nil, errors.New("campaign: no seeds")
	}
	if spec.Recheck < 0 || spec.Recheck > 1 {
		return nil, fmt.Errorf("campaign: recheck fraction %v outside [0, 1]", spec.Recheck)
	}

	// Build the grid and pre-select recheck cells deterministically, in
	// grid order, before any work is dispatched: the selection must not
	// depend on scheduling.
	grid := make([]CellResult, 0, len(spec.IDs)*len(spec.Seeds))
	for _, id := range spec.IDs {
		for _, seed := range spec.Seeds {
			grid = append(grid, CellResult{ID: id, Seed: seed})
		}
	}
	for i, re := range SelectRechecks(len(grid), spec.Recheck, spec.RecheckSeed) {
		grid[i].Rechecked = re
	}

	jobs := spec.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(grid) {
		jobs = len(grid)
	}

	// Dispatch order: grid order, unless a cost hint says some
	// experiments run long — then longest-known-first, so the pool's
	// tail is short cells instead of one straggler. Stable sort keeps
	// grid order within equal cost; the collector below re-imposes grid
	// order on all observable output either way.
	order := make([]int, len(grid))
	for i := range order {
		order[i] = i
	}
	if spec.CostHint != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return spec.CostHint(grid[order[a]].ID) > spec.CostHint(grid[order[b]].ID)
		})
	}

	ctx := spec.Context
	if ctx == nil {
		ctx = context.Background()
	}

	start := time.Now()
	tasks := make(chan int, len(grid))
	for _, i := range order {
		tasks <- i
	}
	close(tasks)
	done := make(chan int, len(grid))
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				// A done context skips every cell that has not started:
				// the queue drains without executing, so cancellation
				// latency is bounded by the cells already in flight.
				if err := ctx.Err(); err != nil {
					grid[i].Err = fmt.Errorf("skipped: %w", err)
					done <- i
					continue
				}
				// Hold one budget slot per cell so replicate fan-out
				// inside the cell borrows only idle capacity.
				spec.Pool.Acquire()
				if err := ctx.Err(); err != nil {
					grid[i].Err = fmt.Errorf("skipped: %w", err)
				} else {
					runCell(&spec, &grid[i])
				}
				spec.Pool.Release()
				done <- i
			}
		}()
	}

	// Collect in the caller's goroutine, flushing the completed prefix so
	// OnCell observes grid order regardless of completion order.
	completed := make([]bool, len(grid))
	next := 0
	for range grid {
		completed[<-done] = true
		for next < len(grid) && completed[next] {
			if spec.OnCell != nil {
				spec.OnCell(grid[next])
			}
			next++
		}
	}
	wg.Wait()

	res := &Result{
		IDs:     append([]string(nil), spec.IDs...),
		Seeds:   append([]int64(nil), spec.Seeds...),
		Cells:   grid,
		Elapsed: time.Since(start),
	}
	var errs []error
	for i := range grid {
		c := &grid[i]
		if c.Err != nil {
			errs = append(errs, fmt.Errorf("campaign: %s seed %d: %w", c.ID, c.Seed, c.Err))
		}
		if c.Diverged {
			errs = append(errs, &DivergenceError{ID: c.ID, Seed: c.Seed, First: c.Report, Second: c.RecheckReport})
		}
		if c.MetricsDiverged {
			errs = append(errs, fmt.Errorf("campaign: determinism violation: %s seed %d produced identical reports but diverging typed metrics", c.ID, c.Seed))
		}
	}
	return res, errors.Join(errs...)
}

// runCell executes one cell, including its optional determinism
// recheck. With a typed runner the recheck covers the metric stream as
// well as the report bytes.
func runCell(spec *Spec, c *CellResult) {
	run := func() (string, []sim.Metric, error) {
		if spec.RunTyped != nil {
			return spec.RunTyped(c.ID, c.Seed)
		}
		report, err := spec.Run(c.ID, c.Seed)
		return report, nil, err
	}
	t0 := time.Now()
	c.Report, c.Metrics, c.Err = run()
	c.Elapsed = time.Since(t0)
	if c.Err != nil || !c.Rechecked {
		return
	}
	// The recheck is a second cell execution: a done context skips it
	// like any unstarted cell, rather than half-reporting the cell.
	if spec.Context != nil && spec.Context.Err() != nil {
		c.Err = fmt.Errorf("skipped: %w", spec.Context.Err())
		return
	}
	second, secondMetrics, err := run()
	if err != nil {
		c.Err = fmt.Errorf("determinism recheck: %w", err)
		return
	}
	if second != c.Report {
		c.Diverged = true
		c.RecheckReport = second
	}
	if !sim.MetricsEqual(c.Metrics, secondMetrics) {
		c.MetricsDiverged = true
	}
}

// Rechecked counts the cells the determinism self-check double-executed.
func (r *Result) Rechecked() int {
	n := 0
	for i := range r.Cells {
		if r.Cells[i].Rechecked {
			n++
		}
	}
	return n
}

// Divergences counts the cells whose recheck produced a different
// report or a different typed metric stream.
func (r *Result) Divergences() int {
	n := 0
	for i := range r.Cells {
		if r.Cells[i].Diverged || r.Cells[i].MetricsDiverged {
			n++
		}
	}
	return n
}

// Cell returns the result for experiment i, seed j in grid order.
func (r *Result) Cell(i, j int) *CellResult {
	return &r.Cells[i*len(r.Seeds)+j]
}
