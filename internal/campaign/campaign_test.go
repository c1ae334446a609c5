package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autosec/internal/sim"
)

// fakeRun is a deterministic stand-in experiment: a metric-bound table
// plus a prose line with its typed twin, derived from (id, seed) and
// captured the way core.RunContext captures a registry run.
func fakeRun(id string, seed int64) (string, []sim.Metric, error) {
	ms := sim.NewMetricSet()
	tb := sim.NewTable(id+" report", "scenario", "delivered", "p50-lat-µs")
	tb.BindMetrics(ms)
	tb.AddRow(id, fmt.Sprintf("%d/10", seed%11), float64(seed)+0.5)
	ms.Add("attack paths", float64(seed*2))
	report := tb.String() + fmt.Sprintf("\nattack paths: %d remain\n", seed*2)
	return report, ms.Metrics(), nil
}

// TestParseNumber checks which report tokens a campaign aggregates as
// numbers: each token is rendered as a cell of a metric-bound table,
// and the campaign summary must carry exactly the parsed value, or no
// row at all for a token that is not purely numeric.
func TestParseNumber(t *testing.T) {
	t.Parallel()
	accept := map[string]float64{
		"40/40":     1,
		"0/40":      0,
		"3/4":       0.75,
		"166.400":   166.4,
		"2.33e-10":  2.33e-10,
		"(21)":      21,
		"1.00e-04,": 1e-4,
		"-0.042":    -0.042,
	}
	reject := []string{"-", "yes", "V2X", "10B-T1S", "a/b", "1/0", "", "e.g."}
	var ids []string
	tokens := map[string]string{}
	for tok := range accept {
		id := fmt.Sprintf("tok%d", len(ids))
		ids = append(ids, id)
		tokens[id] = tok
	}
	for _, tok := range reject {
		id := fmt.Sprintf("tok%d", len(ids))
		ids = append(ids, id)
		tokens[id] = tok
	}
	cellRun := func(id string, seed int64) (string, []sim.Metric, error) {
		ms := sim.NewMetricSet()
		tb := sim.NewTable(id, "row", "value")
		tb.BindMetrics(ms)
		tb.AddRow("r", tokens[id])
		return tb.String(), ms.Metrics(), nil
	}
	res, err := Run(Spec{IDs: ids, Seeds: Seeds(1, 2), Jobs: 2, RunTyped: cellRun})
	if err != nil {
		t.Fatal(err)
	}
	for _, es := range res.Summaries() {
		tok := tokens[es.ID]
		want, numeric := accept[tok]
		if !numeric {
			if len(es.Metrics) != 0 {
				t.Errorf("token %q aggregated as %v", tok, es.Metrics[0].Agg.Mean())
			}
			continue
		}
		if len(es.Metrics) != 1 || es.Metrics[0].Name != "r/value" {
			t.Errorf("token %q: metrics %+v, want one r/value row", tok, es.Metrics)
			continue
		}
		agg := es.Metrics[0].Agg
		if agg.N() != 2 || math.Abs(agg.Mean()-want) > 1e-15 {
			t.Errorf("token %q aggregated as n=%d mean=%v; want n=2 mean=%v", tok, agg.N(), agg.Mean(), want)
		}
	}
}

func TestSeedsHelper(t *testing.T) {
	t.Parallel()
	s := Seeds(42, 3)
	if len(s) != 3 || s[0] != 42 || s[1] != 43 || s[2] != 44 {
		t.Fatalf("Seeds(42, 3) = %v", s)
	}
	if got := Seeds(7, 0); len(got) != 0 {
		t.Fatalf("Seeds(7, 0) = %v", got)
	}
}

func TestSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []Spec{
		{},                                       // nothing set
		{IDs: []string{"a"}, Seeds: Seeds(1, 1)}, // no RunTyped
		{RunTyped: fakeRun},                      // no ids
		{RunTyped: fakeRun, IDs: []string{"a"}},  // no seeds
		{RunTyped: fakeRun, IDs: []string{"a"}, Seeds: Seeds(1, 1), Recheck: 1.5}, // bad fraction
	}
	for i, spec := range cases {
		if _, err := Run(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestGridOrderAndCellLookup(t *testing.T) {
	t.Parallel()
	res, err := Run(Spec{
		IDs:      []string{"alpha", "beta"},
		Seeds:    []int64{1, 2, 3},
		Jobs:     4,
		RunTyped: fakeRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(res.Cells))
	}
	for i, id := range res.IDs {
		for j, seed := range res.Seeds {
			c := res.Cell(i, j)
			if c.ID != id || c.Seed != seed {
				t.Errorf("Cell(%d,%d) = %s/%d, want %s/%d", i, j, c.ID, c.Seed, id, seed)
			}
			if c.Report == "" || c.Err != nil {
				t.Errorf("cell %s/%d incomplete", id, seed)
			}
		}
	}
}

// TestGridDeliverOwes pins the grid's delivery accounting, which Run
// and the fleet coordinator share: a cell owes its primary, plus its
// recheck when selected and the primary succeeded; the recheck is
// compared with the primary; a delivery not owed is refused.
func TestGridDeliverOwes(t *testing.T) {
	t.Parallel()
	type delivery struct {
		report  string
		metrics []sim.Metric
		err     error
	}
	m1, m2 := []sim.Metric{{Name: "m", Value: 1}}, []sim.Metric{{Name: "m", Value: 2}}
	ok := delivery{"r", m1, nil}
	for _, tc := range []struct {
		name      string
		rechecked bool
		deliver   []delivery
		accepted  []bool // Deliver's verdict per delivery
		owes      []bool // Owes after each delivery
		failed    bool   // the cell ends with an error
		diverged  bool
		metricsDv bool
	}{
		{"not rechecked owes one", false, []delivery{ok, ok}, []bool{true, false}, []bool{false, false}, false, false, false},
		{"rechecked owes two", true, []delivery{ok, ok, ok}, []bool{true, true, false}, []bool{true, false, false}, false, false, false},
		{"failed primary owes nothing more", true, []delivery{{"", nil, errors.New("boom")}, ok}, []bool{true, false}, []bool{false, false}, true, false, false},
		{"failed recheck fails the cell", true, []delivery{ok, {"", nil, errors.New("boom")}}, []bool{true, true}, []bool{true, false}, true, false, false},
		{"differing report diverges", true, []delivery{ok, {"r2", m1, nil}}, []bool{true, true}, []bool{true, false}, false, true, false},
		{"differing metrics diverge", true, []delivery{ok, {"r", m2, nil}}, []bool{true, true}, []bool{true, false}, false, false, true},
	} {
		g, err := NewGrid([]string{"a"}, []int64{1}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.Cells[0].Rechecked = tc.rechecked
		if !g.Owes(0) {
			t.Errorf("%s: a fresh cell owes nothing", tc.name)
		}
		for k, d := range tc.deliver {
			if got := g.Deliver(0, d.report, d.metrics, d.err, time.Duration(k+1)); got != tc.accepted[k] {
				t.Errorf("%s: delivery %d accepted = %v, want %v", tc.name, k+1, got, tc.accepted[k])
			}
			if got := g.Owes(0); got != tc.owes[k] {
				t.Errorf("%s: Owes after delivery %d = %v, want %v", tc.name, k+1, got, tc.owes[k])
			}
		}
		c := g.Cells[0]
		if (c.Err != nil) != tc.failed || c.Diverged != tc.diverged || c.MetricsDiverged != tc.metricsDv {
			t.Errorf("%s: err %v, diverged %v, metrics diverged %v; want failed %v, %v, %v",
				tc.name, c.Err, c.Diverged, c.MetricsDiverged, tc.failed, tc.diverged, tc.metricsDv)
		}
		if c.Elapsed != 1 {
			t.Errorf("%s: elapsed %v, want the primary's", tc.name, c.Elapsed)
		}
		if g.Settled() {
			t.Errorf("%s: settled before Complete", tc.name)
		}
		g.Complete(0)
		if !g.Settled() {
			t.Errorf("%s: not settled after Complete", tc.name)
		}
	}
}

// TestRunCancelSkipsOwedDeliveries pins the one text a canceled run
// gives every cell it never finished: the cell whose primary ran but
// whose recheck did not, and the cells that never started, all read
// "skipped: context canceled", as they do on the fleet coordinator's
// cancel path (internal/fleet).
func TestRunCancelSkipsOwedDeliveries(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(Spec{
		IDs: []string{"a", "b"}, Seeds: []int64{1, 2}, Jobs: 1, Recheck: 1, Context: ctx,
		RunTyped: func(id string, seed int64) (string, []sim.Metric, error) {
			cancel()
			return fakeRun(id, seed)
		},
	})
	if err == nil {
		t.Fatal("a canceled campaign reported success")
	}
	for _, c := range res.Cells {
		if c.Err == nil || c.Err.Error() != "skipped: context canceled" {
			t.Errorf("%s seed %d: err %v, want skipped: context canceled", c.ID, c.Seed, c.Err)
		}
	}
	if res.Cells[0].Report == "" {
		t.Error("the first cell's primary ran, but its report was dropped")
	}

	g, err := NewGrid([]string{"a"}, []int64{1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Deliver(0, "r", nil, nil, 0)
	g.Skip(0, context.Canceled)
	if g.Cells[0].Err != nil {
		t.Error("Skip failed a cell that owed nothing")
	}
}

// TestJobsIndependence is the core determinism property: a pool that
// completes cells in scrambled order must render byte-identical output
// to a serial run, and emit OnCell callbacks in grid order.
func TestJobsIndependence(t *testing.T) {
	t.Parallel()
	ids := []string{"a", "b", "c", "d"}
	seeds := Seeds(10, 5)
	// Delay inversely related to grid position so late cells finish first.
	slowRun := func(id string, seed int64) (string, []sim.Metric, error) {
		time.Sleep(time.Duration(20-seed) * time.Millisecond)
		return fakeRun(id, seed)
	}
	render := func(jobs int) (string, []string) {
		var order []string
		res, err := Run(Spec{
			IDs: ids, Seeds: seeds, Jobs: jobs, Recheck: 0.3, RunTyped: slowRun,
			OnCell: func(c CellResult) { order = append(order, fmt.Sprintf("%s/%d", c.ID, c.Seed)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.RenderSummary(), order
	}
	serialOut, serialOrder := render(1)
	parOut, parOrder := render(8)
	if serialOut != parOut {
		t.Errorf("summary differs between -jobs 1 and -jobs 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialOut, parOut)
	}
	if len(parOrder) != len(ids)*len(seeds) {
		t.Fatalf("OnCell fired %d times, want %d", len(parOrder), len(ids)*len(seeds))
	}
	for i := range serialOrder {
		if serialOrder[i] != parOrder[i] {
			t.Fatalf("OnCell order diverged at %d: %s vs %s", i, serialOrder[i], parOrder[i])
		}
	}
	want := fmt.Sprintf("%s/%d", ids[0], seeds[0])
	if parOrder[0] != want {
		t.Errorf("first OnCell = %s, want %s", parOrder[0], want)
	}
}

// TestPoolSizesWorkers checks that a given pool, not Spec.Jobs, sets
// the worker count: with Jobs 1 and a three-slot pool, three cells
// must be able to run at once.
func TestPoolSizesWorkers(t *testing.T) {
	t.Parallel()
	const slots = 3
	var arrived sync.WaitGroup
	arrived.Add(slots)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	run := func(id string, seed int64) (string, []sim.Metric, error) {
		arrived.Done()
		select {
		case <-all:
			return fakeRun(id, seed)
		case <-time.After(5 * time.Second):
			return "", nil, errors.New("cells did not run concurrently")
		}
	}
	_, err := Run(Spec{
		IDs: []string{"a"}, Seeds: Seeds(1, slots), Jobs: 1,
		Pool: sim.NewWorkerPool(slots), RunTyped: run,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecheckSelectionDeterministicAndBounded(t *testing.T) {
	t.Parallel()
	spec := Spec{IDs: []string{"a", "b", "c"}, Seeds: Seeds(1, 20), Recheck: 0.25, RunTyped: fakeRun}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Jobs = 7
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rechecked() == 0 {
		t.Error("positive recheck fraction selected no cells")
	}
	if a.Rechecked() == len(a.Cells) {
		t.Errorf("fraction 0.25 rechecked all %d cells", len(a.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i].Rechecked != b.Cells[i].Rechecked {
			t.Fatalf("recheck selection differs at cell %d across worker counts", i)
		}
	}
	// Full recheck double-executes every cell.
	spec.Recheck = 1
	var calls atomic.Int64
	spec.RunTyped = func(id string, seed int64) (string, []sim.Metric, error) {
		calls.Add(1)
		return fakeRun(id, seed)
	}
	c, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rechecked() != len(c.Cells) {
		t.Errorf("recheck 1.0: %d/%d cells rechecked", c.Rechecked(), len(c.Cells))
	}
	if got := calls.Load(); got != int64(2*len(c.Cells)) {
		t.Errorf("recheck 1.0 made %d calls, want %d", got, 2*len(c.Cells))
	}
}

func TestDivergenceDetection(t *testing.T) {
	t.Parallel()
	// A runner that violates the determinism contract for one cell: the
	// second execution of ("bad", 2) yields a different report.
	var mu sync.Mutex
	runs := map[string]int{}
	badRun := func(id string, seed int64) (string, []sim.Metric, error) {
		mu.Lock()
		key := fmt.Sprintf("%s/%d", id, seed)
		runs[key]++
		n := runs[key]
		mu.Unlock()
		if id == "bad" && seed == 2 && n > 1 {
			return "nondeterministic output", nil, nil
		}
		return fakeRun(id, seed)
	}
	res, err := Run(Spec{
		IDs:      []string{"ok", "bad"},
		Seeds:    []int64{1, 2},
		Recheck:  1, // recheck everything so the bad cell is caught
		RunTyped: badRun,
	})
	if err == nil {
		t.Fatal("divergence not reported as error")
	}
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("error is not a DivergenceError: %v", err)
	}
	if div.ID != "bad" || div.Seed != 2 {
		t.Errorf("divergence attributed to %s/%d, want bad/2", div.ID, div.Seed)
	}
	if !strings.Contains(err.Error(), "determinism violation") {
		t.Errorf("error message lacks diagnosis: %v", err)
	}
	if res.Divergences() != 1 {
		t.Errorf("Divergences() = %d, want 1", res.Divergences())
	}
}

func TestCellErrorsJoined(t *testing.T) {
	t.Parallel()
	failSeed3 := func(id string, seed int64) (string, []sim.Metric, error) {
		if seed == 3 {
			return "", nil, fmt.Errorf("boom at %s", id)
		}
		return fakeRun(id, seed)
	}
	res, err := Run(Spec{IDs: []string{"x", "y"}, Seeds: []int64{1, 3}, RunTyped: failSeed3})
	if err == nil {
		t.Fatal("cell failures not surfaced")
	}
	for _, id := range []string{"x", "y"} {
		if !strings.Contains(err.Error(), "boom at "+id) {
			t.Errorf("joined error missing failure of %s: %v", id, err)
		}
	}
	// Healthy cells still delivered their reports.
	if res.Cell(0, 0).Err != nil || res.Cell(0, 0).Report == "" {
		t.Error("successful cell lost its report")
	}
	// Failed cells are excluded from aggregation.
	for _, es := range res.Summaries() {
		if es.Runs != 1 {
			t.Errorf("%s: Runs = %d, want 1", es.ID, es.Runs)
		}
	}
}

// TestPanickingCellFailsAlone checks that a cell whose RunTyped
// panics, in its primary execution or in its recheck, fails with the
// panic value as its error while the campaign goes on: at 1 and 4
// slots every other cell and the summary are byte-identical, and every
// slot comes home.
func TestPanickingCellFailsAlone(t *testing.T) {
	t.Parallel()
	ids, seeds := []string{"a", "b", "c"}, Seeds(1, 4)
	clean, err := Run(Spec{IDs: ids, Seeds: seeds, Jobs: 1, RunTyped: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	var summary string
	for _, jobs := range []int{1, 4} {
		var calls sync.Map
		run := func(id string, seed int64) (string, []sim.Metric, error) {
			n, _ := calls.LoadOrStore(fmt.Sprintf("%s/%d", id, seed), new(atomic.Int64))
			call := n.(*atomic.Int64).Add(1)
			switch {
			case id == "b" && seed == 2:
				panic("boom b/2")
			case id == "c" && seed == 3 && call == 2:
				panic(fmt.Errorf("recheck boom c/%d", seed))
			}
			return fakeRun(id, seed)
		}
		pool := sim.NewWorkerPool(jobs)
		res, err := Run(Spec{IDs: ids, Seeds: seeds, Pool: pool, Recheck: 1, RunTyped: run})
		if err == nil {
			t.Fatalf("jobs=%d: panics not surfaced", jobs)
		}
		for i := range res.Cells {
			c, want := &res.Cells[i], &clean.Cells[i]
			switch {
			case c.ID == "b" && c.Seed == 2:
				if c.Err == nil || c.Err.Error() != "panic: boom b/2" {
					t.Errorf("jobs=%d: b/2 err = %v", jobs, c.Err)
				}
			case c.ID == "c" && c.Seed == 3:
				if c.Err == nil || c.Err.Error() != "determinism recheck: panic: recheck boom c/3" {
					t.Errorf("jobs=%d: c/3 err = %v", jobs, c.Err)
				}
			case c.Err != nil || c.Report != want.Report || !sim.MetricsEqual(c.Metrics, want.Metrics):
				t.Errorf("jobs=%d: %s/%d moved: err %v", jobs, c.ID, c.Seed, c.Err)
			}
		}
		if got := res.RenderSummary(); summary == "" {
			summary = got
		} else if got != summary {
			t.Errorf("jobs=%d: summary differs from jobs=1:\n%s\nvs\n%s", jobs, got, summary)
		}
		for i := 0; i < jobs; i++ {
			if !pool.TryAcquire() {
				t.Fatalf("jobs=%d: slot %d not released after a panic", jobs, i)
			}
		}
	}
}

func TestRenderSummaryAggregates(t *testing.T) {
	t.Parallel()
	// "quiet" publishes no typed metrics, as fig7 and exp-access do in
	// the registry. Its report has a number-bearing "key: value" line,
	// which must not turn into a metric row: only the typed stream feeds
	// aggregation.
	run := func(id string, seed int64) (string, []sim.Metric, error) {
		if id == "quiet" {
			return fmt.Sprintf("quiet: %d trust relations\n", seed), nil, nil
		}
		return fakeRun(id, seed)
	}
	res, err := Run(Spec{IDs: []string{"exp", "quiet"}, Seeds: []int64{1, 2, 3}, RunTyped: run})
	if err != nil {
		t.Fatal(err)
	}
	out := res.RenderSummary()
	if !strings.Contains(out, "campaign: 2 experiments × 3 seeds = 6 cells") {
		t.Errorf("header missing:\n%s", out)
	}
	// The typed "attack paths" metric is 2, 4, 6 across the seeds.
	for _, want := range []string{"attack paths", "2", "4", "6"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	quietTable := "== campaign — quiet (3/3 runs) ==\n" +
		"metric  n  min  mean  max  spread\n" +
		"------  -  ---  ----  ---  ------\n"
	if !strings.HasSuffix(out, quietTable) {
		t.Errorf("nil-metrics experiment should render its runs and no metric rows:\n%s", out)
	}
	sums := res.Summaries()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	if sums[1].Runs != 3 || len(sums[1].Metrics) != 0 {
		t.Errorf("quiet: Runs = %d, %d metrics; want 3 runs, 0 metrics", sums[1].Runs, len(sums[1].Metrics))
	}
	var found bool
	for _, m := range sums[0].Metrics {
		if m.Name == "attack paths" {
			found = true
			if m.Agg.N() != 3 || m.Agg.Min() != 2 || m.Agg.Max() != 6 || m.Agg.Mean() != 4 {
				t.Errorf("attack paths agg wrong: n=%d min=%v mean=%v max=%v",
					m.Agg.N(), m.Agg.Min(), m.Agg.Mean(), m.Agg.Max())
			}
		}
	}
	if !found {
		t.Error("attack paths metric not aggregated")
	}
}

func TestElapsedRecordedButNotRendered(t *testing.T) {
	t.Parallel()
	res, err := Run(Spec{IDs: []string{"exp"}, Seeds: []int64{1}, RunTyped: func(id string, seed int64) (string, []sim.Metric, error) {
		time.Sleep(2 * time.Millisecond)
		return fakeRun(id, seed)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Elapsed <= 0 || res.Elapsed <= 0 {
		t.Error("timings not collected")
	}
	if strings.Contains(res.RenderSummary(), "ms") {
		t.Error("wall-clock leaked into the deterministic summary")
	}
}

// TestCostHintDispatchesLongestFirst pins the scheduling contract: with
// a cost hint and one worker, high-cost experiments execute first, while
// every observable output — OnCell order and the rendered summary —
// stays in grid order, byte-identical to an unhinted run.
func TestCostHintDispatchesLongestFirst(t *testing.T) {
	t.Parallel()
	ids := []string{"cheap", "mid", "slow"}
	seeds := Seeds(1, 2)
	cost := map[string]int{"cheap": 1, "mid": 10, "slow": 100}

	var mu sync.Mutex
	var execOrder []string
	recordingRun := func(id string, seed int64) (string, []sim.Metric, error) {
		mu.Lock()
		execOrder = append(execOrder, fmt.Sprintf("%s/%d", id, seed))
		mu.Unlock()
		return fakeRun(id, seed)
	}
	var cellOrder []string
	res, err := Run(Spec{
		IDs: ids, Seeds: seeds, Jobs: 1, RunTyped: recordingRun,
		CostHint: func(id string) int { return cost[id] },
		OnCell:   func(c CellResult) { cellOrder = append(cellOrder, fmt.Sprintf("%s/%d", c.ID, c.Seed)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	wantExec := []string{"slow/1", "slow/2", "mid/1", "mid/2", "cheap/1", "cheap/2"}
	for i := range wantExec {
		if execOrder[i] != wantExec[i] {
			t.Fatalf("dispatch order = %v, want %v", execOrder, wantExec)
		}
	}
	wantCells := []string{"cheap/1", "cheap/2", "mid/1", "mid/2", "slow/1", "slow/2"}
	for i := range wantCells {
		if cellOrder[i] != wantCells[i] {
			t.Fatalf("OnCell order = %v, want grid order %v", cellOrder, wantCells)
		}
	}
	unhinted, err := Run(Spec{IDs: ids, Seeds: seeds, Jobs: 1, RunTyped: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	if res.RenderSummary() != unhinted.RenderSummary() {
		t.Error("cost hint changed the rendered summary")
	}
}

func TestSlowestCellsOrderAndTies(t *testing.T) {
	t.Parallel()
	res := &Result{
		IDs: []string{"a", "b"}, Seeds: []int64{1, 2},
		Cells: []CellResult{
			{ID: "a", Seed: 1, Elapsed: 5 * time.Millisecond},
			{ID: "a", Seed: 2, Elapsed: 30 * time.Millisecond},
			{ID: "b", Seed: 1, Elapsed: 5 * time.Millisecond},
			{ID: "b", Seed: 2, Elapsed: 90 * time.Millisecond},
		},
		Elapsed: 130 * time.Millisecond,
	}
	top := res.SlowestCells(3)
	if len(top) != 3 || top[0].ID != "b" || top[0].Seed != 2 || top[1].ID != "a" || top[1].Seed != 2 {
		t.Fatalf("SlowestCells(3) = %v/%v, %v/%v, %v/%v",
			top[0].ID, top[0].Seed, top[1].ID, top[1].Seed, top[2].ID, top[2].Seed)
	}
	// Equal-time cells keep grid order: a/1 before b/1.
	if top[2].ID != "a" || top[2].Seed != 1 {
		t.Errorf("tie broken out of grid order: got %s/%d", top[2].ID, top[2].Seed)
	}
	if got := res.SlowestCells(99); len(got) != 4 {
		t.Errorf("SlowestCells over-request returned %d cells", len(got))
	}
	out := res.RenderTimings(2)
	if !strings.Contains(out, "b seed 2") || !strings.Contains(out, "a seed 2") {
		t.Errorf("RenderTimings missing slowest cells: %q", out)
	}
	if strings.Contains(out, "a seed 1") {
		t.Errorf("RenderTimings(2) rendered more than two cells: %q", out)
	}
}

// TestWriteJSONTimingsOptIn: the default JSON document must stay free
// of wall-clock data (it is diffed across worker counts); the timing
// section appears only through the explicit opt-in writer.
func TestWriteJSONTimingsOptIn(t *testing.T) {
	t.Parallel()
	res, err := Run(Spec{IDs: []string{"x", "y"}, Seeds: Seeds(1, 3), RunTyped: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	var plain, timed strings.Builder
	if err := res.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSONWithTimings(&timed); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "timings") {
		t.Error("default JSON document contains wall-clock timings")
	}
	if n := strings.Count(timed.String(), "elapsed_ms"); n != 6 {
		t.Errorf("timed JSON has %d elapsed_ms entries, want 6", n)
	}
}

// BenchmarkRenderSummary times RenderSummary for one fleet chunk (one
// experiment × 4 seeds) and for a registry-sized grid (28 × 32). Every
// cell publishes 24 metrics, about as many as a registry report.
func BenchmarkRenderSummary(b *testing.B) {
	run := func(id string, seed int64) (string, []sim.Metric, error) {
		ms := make([]sim.Metric, 24)
		for i := range ms {
			ms[i] = sim.Metric{Name: fmt.Sprintf("%s × %d/col %d", id, i/4, i%4), Value: float64(seed*int64(i+1)) / 7}
		}
		return "", ms, nil
	}
	for _, grid := range []struct{ ids, seeds int }{{1, 4}, {28, 32}} {
		ids := make([]string, grid.ids)
		for i := range ids {
			ids[i] = fmt.Sprintf("exp%02d", i)
		}
		res, err := Run(Spec{IDs: ids, Seeds: Seeds(42, grid.seeds), Jobs: 1, RunTyped: run})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cells=%d", len(res.Cells)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res.RenderSummary()
			}
		})
	}
}
