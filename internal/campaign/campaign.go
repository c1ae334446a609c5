// Package campaign runs multi-seed experiment campaigns: it fans an
// (experiment, seed) grid out over a bounded worker pool, collects the
// per-run reports and timings, aggregates rate-style metrics across
// seeds, and — crucially — double-executes a configurable fraction of
// cells with the same seed, failing loudly on any byte-level report
// divergence. That turns the sim kernel's "same seed ⇒ identical
// output" contract from a comment into a continuously exercised
// invariant.
//
// The package is deliberately generic: it depends only on a
// TypedRunFunc (id, seed) → (report, typed metrics), so the experiment
// registry in internal/core, a test stub, or any future workload can be
// campaigned identically. All rendered output is a pure function of the
// collected cells, so the aggregate tables are byte-identical regardless
// of the worker count.
//
// Drives `avsec all` and `avsec campaign` over every registry
// experiment; internal/core/testdata/GOLDEN.campaign.txt pins the
// registry's aggregate tables.
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

// TypedRunFunc produces the report of one experiment at one seed and
// the run's typed metrics, which are all that aggregation consumes. It
// must be safe for concurrent use: the pool calls it from many
// goroutines. A panic in it fails only its own cell, with
// the error "panic: <value>".
type TypedRunFunc func(id string, seed int64) (string, []sim.Metric, error)

// recheckSeed drives the deterministic selection of which cells get
// the double-execution self-check. Fixed so that a given grid always
// rechecks the same cells, independent of worker count or wall clock.
const recheckSeed int64 = 0x5EEDC4EC

// Spec describes a campaign.
type Spec struct {
	// IDs are the experiment identifiers, in presentation order.
	IDs []string
	// Seeds are the simulation seeds each experiment runs at.
	Seeds []int64
	// Jobs bounds the worker count when Pool is nil; <= 0 means
	// GOMAXPROCS. With a Pool, Run starts Pool.Size() workers instead.
	Jobs int
	// Recheck is the fraction of grid cells in [0, 1] that are executed
	// twice with the same seed for the determinism self-check. When
	// positive, at least one cell is always rechecked.
	Recheck float64
	// RunTyped executes one cell. Required.
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
	// Run starts one worker per slot. Route the same pool into
	// RunTyped (e.g. via core.RunOptions.Pool) to keep the two-level
	// cells × replicates parallelism inside one -jobs budget; once the
	// grid drains to a last straggler cell, the idle workers' slots are
	// donated to that cell's replicate loops. Purely a scheduling
	// device: rendered output is identical with or without it.
	Pool *sim.WorkerPool
}

// CellResult is the outcome of one (experiment, seed) run.
type CellResult struct {
	ID     string
	Seed   int64
	Report string
	// Metrics holds the run's typed metrics; a cell that published none
	// contributes no metric rows to aggregation.
	Metrics []sim.Metric
	Err     error
	// Elapsed is the wall time of the primary execution (reporting only;
	// it never feeds rendered tables, which must stay deterministic).
	Elapsed time.Duration
	// Rechecked reports whether the determinism self-check re-ran this
	// cell; Diverged is set when the two reports differ, and
	// RecheckReport then holds the second, conflicting report.
	// MetricsDiverged is set when the reports agree but the typed
	// metric streams do not.
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

// selectRechecks returns the deterministic recheck mask for a grid of
// n cells in grid order: mask[i] is true when cell i is double-executed
// by the determinism self-check. The selection seed is fixed, so the
// same (grid size, fraction) always selects the same cells, whoever
// executes them. When fraction is positive, at least one cell is
// always selected.
func selectRechecks(n int, fraction float64) []bool {
	mask := make([]bool, n)
	if fraction <= 0 || n == 0 {
		return mask
	}
	rng := sim.NewRNG(recheckSeed)
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

// Grid settles one campaign: every cell in grid order (experiment-major,
// then seed) with its recheck selection, the deliveries each cell still
// owes, and the prefix of completed cells already handed to OnCell. Run
// and the fleet coordinator (internal/fleet) both settle through it, so
// a cell is rechecked, compared, streamed and reported the same way
// whoever executes it. Distinct cells may be delivered concurrently;
// Complete must be called from one goroutine at a time.
type Grid struct {
	Result
	onCell func(CellResult)
	got    []uint8 // deliveries landed per cell
	done   []bool
	next   int // first cell not yet handed to onCell
}

// NewGrid validates the campaign's shape and lays out its grid. The
// recheck cells are selected here, before any work is dispatched,
// because the selection must not depend on scheduling.
func NewGrid(ids []string, seeds []int64, recheck float64, onCell func(CellResult)) (*Grid, error) {
	if len(ids) == 0 {
		return nil, errors.New("campaign: no experiment ids")
	}
	if len(seeds) == 0 {
		return nil, errors.New("campaign: no seeds")
	}
	if recheck < 0 || recheck > 1 {
		return nil, fmt.Errorf("campaign: recheck fraction %v outside [0, 1]", recheck)
	}
	g := &Grid{
		Result: Result{IDs: append([]string(nil), ids...), Seeds: append([]int64(nil), seeds...)},
		onCell: onCell,
		got:    make([]uint8, len(ids)*len(seeds)),
		done:   make([]bool, len(ids)*len(seeds)),
	}
	g.Cells = make([]CellResult, 0, len(g.done))
	for _, id := range ids {
		for _, seed := range seeds {
			g.Cells = append(g.Cells, CellResult{ID: id, Seed: seed})
		}
	}
	for i, re := range selectRechecks(len(g.Cells), recheck) {
		g.Cells[i].Rechecked = re
	}
	return g, nil
}

// Owes reports whether cell i still needs a delivery: its primary, or
// its recheck when it was selected and its primary succeeded. A failed
// primary is not recompared.
func (g *Grid) Owes(i int) bool {
	c := &g.Cells[i]
	return g.got[i] == 0 || g.got[i] == 1 && c.Rechecked && c.Err == nil
}

// Deliver lands one execution of cell i. The first fills the cell; the
// second is the determinism recheck, compared with the first over the
// report bytes and the metric stream (elapsed is then ignored). A
// delivery the cell does not owe changes nothing and returns false.
func (g *Grid) Deliver(i int, report string, metrics []sim.Metric, err error, elapsed time.Duration) bool {
	if !g.Owes(i) {
		return false
	}
	g.got[i]++
	c := &g.Cells[i]
	switch {
	case g.got[i] == 1:
		c.Report, c.Metrics, c.Err, c.Elapsed = report, metrics, err, elapsed
	case err != nil:
		c.Err = fmt.Errorf("determinism recheck: %w", err)
	default:
		if report != c.Report {
			c.Diverged = true
			c.RecheckReport = report
		}
		if !sim.MetricsEqual(c.Metrics, metrics) {
			c.MetricsDiverged = true
		}
	}
	return true
}

// Skip fails whatever cell i still owes with "skipped: <cause>": its
// primary, or its recheck, when the run stops before executing it. The
// text is the same for both, so a canceled cell reads the same whoever
// ran the campaign. A cell that owes nothing is left as it is.
func (g *Grid) Skip(i int, cause error) {
	if g.Owes(i) {
		g.got[i]++
		g.Cells[i].Err = fmt.Errorf("skipped: %w", cause)
	}
}

// Complete marks cell i settled and hands every cell of the completed
// grid-order prefix that OnCell has not seen yet to OnCell.
func (g *Grid) Complete(i int) {
	g.done[i] = true
	for g.next < len(g.Cells) && g.done[g.next] {
		if g.onCell != nil {
			g.onCell(g.Cells[g.next])
		}
		g.next++
	}
}

// Settled reports whether every cell has been completed.
func (g *Grid) Settled() bool { return g.next == len(g.Cells) }

// Settle returns the result, stamped with the campaign wall time, and
// the joined error of every cell failure and every determinism
// divergence: a non-nil error means the campaign must not be trusted.
func (g *Grid) Settle(elapsed time.Duration) (*Result, error) {
	g.Elapsed = elapsed
	var errs []error
	for i := range g.Cells {
		c := &g.Cells[i]
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
	return &g.Result, errors.Join(errs...)
}

// Run executes the campaign grid. It always returns the full Result
// (every cell that ran, in grid order); the error joins every cell
// failure and every determinism divergence, so a non-nil error means
// the campaign must not be trusted.
func Run(spec Spec) (*Result, error) {
	if spec.RunTyped == nil {
		return nil, errors.New("campaign: Spec.RunTyped is required")
	}
	g, err := NewGrid(spec.IDs, spec.Seeds, spec.Recheck, spec.OnCell)
	if err != nil {
		return nil, err
	}
	grid := g.Cells

	jobs := spec.Jobs
	if spec.Pool != nil {
		jobs = spec.Pool.Size()
	} else if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(grid) {
		jobs = len(grid)
	}

	// Dispatch order: grid order, unless a cost hint says some
	// experiments run long — then longest-known-first, so the pool's
	// tail is short cells instead of one straggler. Stable sort keeps
	// grid order within equal cost; the grid re-imposes grid order on
	// all observable output either way.
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
					g.Skip(i, err)
					done <- i
					continue
				}
				// Hold one budget slot per cell so replicate fan-out
				// inside the cell borrows only idle capacity.
				spec.Pool.Acquire()
				if err := ctx.Err(); err != nil {
					g.Skip(i, err)
				} else {
					runCell(&spec, g, i)
				}
				spec.Pool.Release()
				done <- i
			}
		}()
	}

	// Settle in the caller's goroutine, so OnCell observes grid order
	// regardless of completion order.
	for range grid {
		g.Complete(<-done)
	}
	wg.Wait()
	return g.Settle(time.Since(start))
}

// runCell executes cell i, including its optional determinism recheck.
func runCell(spec *Spec, g *Grid, i int) {
	c := &g.Cells[i]
	t0 := time.Now()
	report, metrics, err := runTyped(spec.RunTyped, c.ID, c.Seed)
	g.Deliver(i, report, metrics, err, time.Since(t0))
	if !g.Owes(i) {
		return
	}
	// The recheck is a second cell execution: a done context skips it
	// like any unstarted cell, rather than half-reporting the cell.
	if spec.Context != nil && spec.Context.Err() != nil {
		g.Skip(i, spec.Context.Err())
		return
	}
	report, metrics, err = runTyped(spec.RunTyped, c.ID, c.Seed)
	g.Deliver(i, report, metrics, err, 0)
}

// runTyped executes one cell with run, turning a panic into the cell's
// error. The error text is the panic value alone, with no stack or
// goroutine id, so it is the same at every -jobs.
func runTyped(run TypedRunFunc, id string, seed int64) (report string, metrics []sim.Metric, err error) {
	defer func() {
		if v := recover(); v != nil {
			report, metrics, err = "", nil, fmt.Errorf("panic: %v", v)
		}
	}()
	return run(id, seed)
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
