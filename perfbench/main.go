// Command perfbench is the repository benchmark. It drives the system
// only through its public entry points (campaign.Run,
// core.RunExperimentResult / core.RunResultOf, scenario.CompileDir,
// server.New(...).Handler() behind httptest, fleet.Run), checks every
// output against a reference computed in the same invocation on another
// execution path, and prints one metric per line followed by a JSON
// result line.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload registry|corpus|fleet-sweep --seed N --seconds S --trace 0|1
//	perfbench compare OLD NEW
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports per-layer metrics, the layer
// attribution table and the tracing overhead. compare reads the result
// records of two commits (directories or files) and prints a verdict
// per workload and metric. README.md documents the workloads.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Minimum sample counts for the reported tails: the nearest-rank p99
// has ten samples beyond it from n = 1000 on.
const minTailSamples = 1000

// setupRuns is how many fresh processes repeat the set-up; setup_s is
// the median of theirs and the measuring process's own.
const setupRuns = 10

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "setup-child":
			os.Exit(setupChildMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	results  string
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: registry, corpus or fleet-sweep")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed: the base of the grid's seed schedule")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time of the run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run: per-layer metrics, attribution and probes")
	fs.StringVar(&o.results, "results", filepath.Join(".bench_build", "results"), "directory for the full result record (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if !knownWorkload(o.workload) || (trace != 0 && trace != 1) || o.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload registry|corpus|fleet-sweep --seed N --seconds S --trace 0|1")
		return 2
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	rec, err := run(o, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printRecord(os.Stdout, rec)
	if o.results != "" {
		if err := saveRecord(o.results, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: saving record:", err)
		}
	}
	line, err := json.Marshal(rec.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs differ from the reference or operations failed:")
		for _, e := range rec.Errors {
			fmt.Fprintln(os.Stderr, "  ", e)
		}
		return 1
	}
	return 0
}

func knownWorkload(name string) bool {
	switch name {
	case "registry", "corpus", "fleet-sweep":
		return true
	}
	return false
}

// setupWorkload performs a workload's set-up: everything before its
// first timed pass.
func setupWorkload(name string, seed int64, scratch string) (workload, error) {
	switch name {
	case "registry":
		return setupInproc(false, seed)
	case "corpus":
		return setupInproc(true, seed)
	}
	dir, err := os.MkdirTemp(scratch, "cache-")
	if err != nil {
		return nil, err
	}
	return setupFleet(nil, slidingWindow(seed), dir)
}

// setupChildMain is one fresh process's set-up; it prints the seconds
// it took. A fresh process pays every one-time cost, such as hashing
// the binary for the cache's code version.
func setupChildMain(args []string) int {
	fs := flag.NewFlagSet("setup-child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 42, "workload seed")
	dir := fs.String("dir", "", "scratch directory")
	if err := fs.Parse(args); err != nil || *dir == "" {
		return 2
	}
	t0 := time.Now()
	w, err := setupWorkload(*name, *seed, *dir)
	d := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup:", err)
		return 1
	}
	w.close()
	fmt.Println(strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
	return 0
}

// setupSamples repeats the set-up in fresh processes, one at a time.
func setupSamples(o options, scratch string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRuns; i++ {
		dir, err := os.MkdirTemp(scratch, "setup-")
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, "setup-child", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--dir", dir)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// run performs one benchmark invocation and assembles its record.
func run(o options, scratch string) (*record, error) {
	rec := newRecord(o)
	t0 := time.Now()
	w, err := setupWorkload(o.workload, o.seed, scratch)
	setup := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	var passes []*passOut
	runPass := func(tr *recorder) error {
		// Each pass starts from a collected heap returned to the OS, so
		// one pass's garbage is not collected on the next pass's time
		// and the resident-set peak sampled during the pass is its own.
		debug.FreeOSMemory()
		stop := make(chan struct{})
		peak := sampleRSS(stop)
		total0, steal0 := cpuTicks()
		p, err := w.pass(len(passes), tr)
		total1, steal1 := cpuTicks()
		close(stop)
		rss := <-peak
		if err != nil {
			return fmt.Errorf("pass %d: %w", len(passes), err)
		}
		p.rssMB = rss
		if total1 > total0 {
			p.steal = float64(steal1-steal0) / float64(total1-total0)
		}
		passes = append(passes, p)
		return nil
	}
	// runUntil runs passes, the next starting when the previous ends (a
	// closed loop), until done accepts the passes it has run.
	runUntil := func(tr *recorder, done func(ps []*passOut, wall time.Duration) bool) ([]*passOut, error) {
		first := len(passes)
		var wall time.Duration
		for {
			if err := runPass(tr); err != nil {
				return nil, err
			}
			wall += passes[len(passes)-1].wall
			if done(passes[first:], wall) {
				return passes[first:], nil
			}
		}
	}
	for i := 0; i < w.warmup(); i++ {
		if err := runPass(nil); err != nil {
			return nil, err
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))

	var timed, untraced, traced []*passOut
	var setups []float64
	var hwm float64
	tr := &recorder{}
	if !o.trace {
		if setups, err = setupSamples(o, scratch); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		// The loop runs until the calm passes fill the budget and both
		// tails have minTailSamples, up to three times the budget.
		timed, err = runUntil(nil, func(ps []*passOut, wall time.Duration) bool {
			ps = calm(ps)
			cells, reqs := tailCounts(ps)
			return wall >= 3*budget || (wallOf(ps) >= budget && cells >= minTailSamples && reqs >= minTailSamples)
		})
		if err != nil {
			return nil, err
		}
		hwm = peakRSSMB()
	} else {
		// Traced run: an untraced half, then a traced half, so the
		// tracing overhead is measured on the same set-up.
		if in, ok := w.(*inproc); ok && in.layer == "scenario" {
			suites, err := suiteGroups()
			if err != nil {
				return nil, err
			}
			in.group = func(id string) string { return suites[id] }
		}
		half := func(_ []*passOut, wall time.Duration) bool { return wall >= budget/2 }
		if untraced, err = runUntil(nil, half); err != nil {
			return nil, err
		}
		if traced, err = runUntil(tr, half); err != nil {
			return nil, err
		}
	}

	ct := &countTracer{}
	expect, entries, err := w.reference(passes, ct)
	if err != nil {
		rec.fail(err)
	} else {
		rec.verify(passes, expect)
	}
	rec.work(passes, ct, w.workCounts())
	if !o.trace {
		rec.endToEnd(setups, timed, hwm)
		return rec, nil
	}
	pr, err := runProbes(o, w, entries, scratch)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	rec.layers(untraced, traced, tr, ct, pr)
	return rec, nil
}

// stealLimit is the share of the machine's CPU time the hypervisor may
// steal during a pass before the pass is left out of the end-to-end
// metrics: beyond it the pass timed the neighbours more than the
// program. Calm passes show well under 1%.
const stealLimit = 0.05

// calm returns the passes within stealLimit.
func calm(passes []*passOut) []*passOut {
	var out []*passOut
	for _, p := range passes {
		if p.steal <= stealLimit {
			out = append(out, p)
		}
	}
	return out
}

func wallOf(passes []*passOut) time.Duration {
	var wall time.Duration
	for _, p := range passes {
		wall += p.wall
	}
	return wall
}

// tailCounts returns the cell and request latency sample counts.
func tailCounts(passes []*passOut) (cells, reqs int) {
	for _, p := range passes {
		cells += len(p.cellMs)
		reqs += len(p.reqMs)
	}
	return cells, reqs
}

// metric is one reported value with its unit and, for a statistic over
// samples, the sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// record is the full result of one invocation. Its JSON form is what
// compare reads.
type record struct {
	Kind        string           `json:"kind"`
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Trace       bool             `json:"trace"`
	Seconds     float64          `json:"seconds"`
	Host        hostFacts        `json:"host"`
	Passes      int              `json:"passes"`
	PassSeconds []float64        `json:"pass_seconds"` // every pass, warm-up included
	PassSteal   []float64        `json:"pass_steal"`   // share of machine CPU time stolen during each pass
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	ErrorRate   float64          `json:"error_rate"`
	Metrics     []metric         `json:"metrics"`
	Work        map[string]int64 `json:"work"`
	Attribution []attrRow        `json:"attribution,omitempty"`
	Errors      []string         `json:"errors,omitempty"`

	spans []span // a traced run's spans, saved beside the record
}

const recordKind = "perfbench-record"

func newRecord(o options) *record {
	return &record{Kind: recordKind, Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Seconds: o.seconds, Host: host(), Correct: true, Work: make(map[string]int64)}
}

func (r *record) add(name string, v float64, unit string, n int, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

func (r *record) fail(err error) {
	r.Correct = false
	r.Attempted++
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

// verify compares every pass with the reference: each cell's output,
// and the rendered summary. A cell error, recheck divergence, mismatch
// or failed chunk request is a failed operation.
func (r *record) verify(passes []*passOut, expect func([]int64) expectation) {
	for _, p := range passes {
		r.PassSeconds = append(r.PassSeconds, p.wall.Seconds())
		r.PassSteal = append(r.PassSteal, p.steal)
		exp := expect(p.seeds)
		r.Attempted += len(p.cells) + 1 + p.reqs
		r.Failed += p.reqFails
		for i, d := range p.cells {
			if p.bad[i] || i >= len(exp.cells) || d != exp.cells[i] {
				r.Failed++
			}
		}
		if len(p.cells) != len(exp.cells) {
			r.Failed++
			p.noteErr("pass %d: %d cells, reference has %d", p.k, len(p.cells), len(exp.cells))
		} else {
			for i, d := range p.cells {
				if !p.bad[i] && d != exp.cells[i] {
					p.noteErr("pass %d: cell %d output differs from the reference", p.k, i)
				}
			}
		}
		if p.summary != exp.summary {
			r.Failed++
			p.noteErr("pass %d: rendered summary differs from the reference", p.k)
		}
		r.Errors = append(r.Errors, p.errs...)
	}
	if len(r.Errors) > 10 {
		r.Errors = r.Errors[:10]
	}
	r.Passes = len(passes)
	r.Correct = r.Correct && r.Failed == 0
	if r.Attempted > 0 {
		r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	}
}

// work records the exact work counts that must repeat between runs of
// the same code and seed.
func (r *record) work(passes []*passOut, ct *countTracer, extra map[string]int64) {
	r.Work["sim.kernel_events"] = int64(ct.events.Load())
	r.Work["sim.rng_draws"] = int64(ct.draws.Load())
	p := passes[len(passes)-1]
	r.Work["cells"] = int64(len(p.cells))
	r.Work["rechecks"] = int64(p.rechecks)
	for k, v := range extra {
		r.Work[k] = v
	}
}

// endToEnd fills the end-to-end metrics from the calm timed passes, or
// from all of them when none was calm.
func (r *record) endToEnd(setup []float64, timed []*passOut, hwmMB float64) {
	r.add("setup_s", median(setup), "s", len(setup), "median of set-ups in fresh processes")
	passes := calm(timed)
	note := fmt.Sprintf("passes; %d of %d left out for CPU steal over %g%%", len(timed)-len(passes), len(timed), 100*stealLimit)
	if len(passes) == 0 {
		passes = timed
		note = fmt.Sprintf("passes; none within %g%% CPU steal, all kept", 100*stealLimit)
	}
	r.add("cells_per_s", cellsPerSecond(passes), "1/s", len(passes), note)
	var cellMs, reqMs, rss []float64
	for _, p := range passes {
		cellMs = append(cellMs, p.cellMs...)
		reqMs = append(reqMs, p.reqMs...)
		rss = append(rss, p.rssMB)
	}
	r.addTail("cell_ms", cellMs)
	r.addTail("request_ms", reqMs)
	r.add("peak_rss_mb", median(rss), "MB", len(rss),
		fmt.Sprintf("median over passes of each pass's peak VmRSS; process VmHWM %.4g MB", hwmMB))
}

// addTail reports the median and p99 of samples with their count.
func (r *record) addTail(name string, samples []float64) {
	n := len(samples)
	r.add(name+".p50", percentile(samples, 50), "ms", n, "")
	r.add(name+".p99", percentile(samples, 99), "ms", n, tailNote(n))
}

// final is the result line the driver reads: the end-to-end metrics
// with tracing off, the per-layer metrics with tracing on.
func (r *record) final() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := endToEndMetrics
	if r.Trace {
		names = layerMetrics
	}
	want := make(map[string]bool)
	for _, m := range names {
		want[m.name] = true
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]val)}
	for _, m := range r.Metrics {
		if want[m.Name] {
			out.Metrics[m.Name] = val{m.Value, m.Unit}
		}
	}
	return out
}

// printRecord prints one metric per line, then the attribution table
// and the record as one JSON line.
func printRecord(f *os.File, r *record) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	h := r.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v passes=%d  host: nproc=%d gomaxprocs=%d cpu=%q %s %s/%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Passes, h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.OS, h.Arch)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Note != "" {
			fmt.Fprintf(w, "  (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-34s %14.6g ratio  (%d failed of %d attempted)\n", "error_rate", r.ErrorRate, r.Failed, r.Attempted)
	keys := make([]string, 0, len(r.Work))
	for k := range r.Work {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  work %-29s %14d count\n", k, r.Work[k])
	}
	if len(r.Attribution) > 0 {
		fmt.Fprintln(w, "  self-time attribution (traced passes):")
		for _, a := range r.Attribution {
			name := a.Layer
			if a.Group != "" {
				name = "  " + a.Layer + "/" + a.Group
			}
			fmt.Fprintf(w, "    %-30s %10.3f s %7.2f%%\n", name, a.SelfS, 100*a.Share)
		}
	}
	b, err := json.Marshal(r)
	if err == nil {
		fmt.Fprintln(w, string(b))
	}
}

// saveRecord writes the record, and a traced run's spans as JSON
// lines beside it.
func saveRecord(dir string, r *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d", r.Workload, r.Seed, btoi(r.Trace), time.Now().UnixNano()))
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(r.spans) == 0 {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".spans.jsonl", buf.Bytes(), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
