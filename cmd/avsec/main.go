// Command avsec is the umbrella experiment runner: it regenerates any
// figure or table of the paper from the autosec simulations.
//
// Usage:
//
//	avsec list                 # show all experiments
//	avsec run <id> [flags]     # run one experiment (e.g. fig8, scn-gen-0042)
//	avsec all [flags]          # run everything in paper order
//	avsec campaign [flags]     # multi-seed statistical campaign
//	avsec fleet [flags]        # shard one campaign across avsecd workers
//	avsec gen [flags]          # grow/check the scenario corpus (scenarios/)
//	avsec scenarios            # list the declarative scenario corpus
//
// Observability: `run` accepts -trace=<file> (JSONL structured trace of
// every scheduled/executed event, metric sample, and RNG checkpoint),
// -json/-csv=<file> (the run's typed metrics), and -cpuprofile /
// -memprofile (pprof). `all` and `campaign` accept -json=<file> for
// machine-readable results. All of it is deterministic: the same seed
// produces byte-identical traces, metrics, and reports.
//
// Both `all` and `campaign` fan work out over a bounded worker pool and
// re-execute a fraction of (experiment, seed) cells to enforce the sim
// kernel's determinism contract; stdout stays byte-identical for any
// -jobs value because every table is a pure function of the reports.
//
// For long-running, fleet-scale use the same campaigns are served over
// HTTP by the avsecd daemon (cmd/avsecd, docs/DAEMON.md), whose output
// is byte-identical to `avsec campaign` for the same spec.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"autosec/internal/campaign"
	"autosec/internal/core"
	"autosec/internal/docs"
	"autosec/internal/scenario"
	"autosec/internal/sim"
	"autosec/internal/sos"

	// The demo drop-in extensions (noop-mac suite, jam attack) register
	// at init, proving the one-file extension property end to end; their
	// scenarios live under internal/ext/demo/scenario.
	_ "autosec/internal/ext/demo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range core.Experiments() {
			fmt.Printf("%-13s %-10s %s\n", e.ID, e.Source, e.Title)
		}
	case "run":
		runOne(os.Args[2:])
	case "dot":
		// Emit the Fig. 9 system-of-systems model as Graphviz for
		// rendering: avsec dot | dot -Tsvg > fig9.svg
		m, err := sos.BuildMaaS()
		if err != nil {
			fmt.Fprintln(os.Stderr, "avsec:", err)
			os.Exit(1)
		}
		fmt.Print(m.DOT())
	case "all":
		if err := runAll(os.Stdout, os.Args[2:]); err != nil {
			fail(err)
		}
	case "expmd":
		if err := runExpmd(os.Stdout); err != nil {
			fail(err)
		}
	case "campaign":
		runCampaign(os.Args[2:])
	case "fleet":
		runFleet(os.Args[2:])
	case "gen":
		if err := runGen(os.Args[2:]); err != nil {
			fail(err)
		}
	case "scenarios":
		runScenarios(os.Args[2:])
	case "ext":
		runExt(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

// fail prints an error and exits non-zero. os.Exit skips deferred
// calls, so fail stops a running CPU profile itself, which would
// otherwise be left an empty file.
func fail(err error) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "avsec:", err)
	os.Exit(1)
}

// runOne executes a single experiment with optional structured
// observability and profiling sinks.
func runOne(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "deterministic simulation seed")
	jobs := fs.Int("jobs", 0, "replicate worker pool size (0 = GOMAXPROCS, 1 = serial)")
	scnDir := fs.String("scenarios", "scenarios", "scenario corpus directory (scn-* ids; missing dir = none)")
	traceFile := fs.String("trace", "", "write the structured JSONL trace to this file")
	jsonFile := fs.String("json", "", "write the run's typed metrics as JSON to this file")
	csvFile := fs.String("csv", "", "write the run's typed metrics as CSV to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	// Accept flags on either side of the id ("run -seed 7 fig2" and
	// "run fig2 -trace=t.jsonl"): the flag package stops at the first
	// positional, so parse the remainder again past the id.
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "avsec run: need exactly one experiment id (try 'avsec list')")
		os.Exit(2)
	}
	id := fs.Arg(0)
	if fs.NArg() > 1 {
		rest := fs.Args()[1:]
		if err := fs.Parse(rest); err != nil {
			os.Exit(2)
		}
		if fs.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "avsec run: need exactly one experiment id (try 'avsec list')")
			os.Exit(2)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	var opt core.RunOptions
	opt.Pool = sim.NewWorkerPool(resolveJobs(*jobs))
	var traceOut *os.File
	var traceBuf *bufio.Writer
	var tracer *sim.JSONLTracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fail(err)
		}
		traceOut = f
		traceBuf = bufio.NewWriter(f)
		tracer = sim.NewJSONLTracer(traceBuf)
		opt.Tracer = tracer
	}

	// Only a scenario id needs the corpus; a registry id neither
	// compiles it nor fails on a malformed spec in it.
	dir := *scnDir
	if !strings.HasPrefix(id, scenario.IDPrefix) {
		dir = ""
	}
	ns, err := scenario.LoadNamespace(dir)
	if err != nil {
		fail(err)
	}
	res, err := ns.Run(id, *seed, opt)
	if err != nil {
		fail(err)
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		if err := traceBuf.Flush(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		if err := traceOut.Close(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
	}
	if *jsonFile != "" {
		if err := writeFileWith(*jsonFile, res.WriteJSON); err != nil {
			fail(err)
		}
	}
	if *csvFile != "" {
		err := writeFileWith(*csvFile, func(w io.Writer) error {
			return sim.WriteMetricsCSV(w, res.Metrics)
		})
		if err != nil {
			fail(err)
		}
	}
	fmt.Println(res.Report)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

// writeFileWith creates path and streams write's output into it.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resolveJobs maps the -jobs flag to a concrete pool size: 0 (or any
// non-positive value) means GOMAXPROCS.
func resolveJobs(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// runExpmd regenerates EXPERIMENTS.md on w: every experiment runs once
// at the documented seed (42), and the typed metric stream feeds the
// template in internal/docs. CI and TestCommandGoldens regenerate and
// diff this, so the checked-in document cannot drift from the registry.
func runExpmd(w io.Writer) error {
	const seed = 42
	metrics := make(docs.Metrics)
	for _, e := range core.Experiments() {
		r, err := core.RunExperimentResult(e.ID, seed, core.RunOptions{Pool: sim.DefaultPool()})
		if err != nil {
			return err
		}
		m := make(map[string]float64, len(r.Metrics))
		for _, mt := range r.Metrics {
			m[mt.Name] = mt.Value
		}
		metrics[e.ID] = m
	}
	out, err := docs.ExperimentsMarkdown(metrics)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
}

// runAll executes every experiment at one seed through the campaign
// pool, streaming reports to w in paper order as each experiment (and
// all its predecessors) completes.
func runAll(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "deterministic simulation seed")
	jobs := fs.Int("jobs", 0, "worker pool size (0 = GOMAXPROCS)")
	recheck := fs.Float64("recheck", 0, "fraction of runs double-executed as a determinism self-check")
	jsonFile := fs.String("json", "", "write every run's typed metrics as one JSON document to this file")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	ns, _ := scenario.LoadNamespace("") // the registry alone always loads
	ids, _ := ns.Select(nil, false)
	pool := sim.NewWorkerPool(resolveJobs(*jobs))
	res, err := campaign.Run(campaign.Spec{
		IDs:      ids,
		Seeds:    []int64{*seed},
		Pool:     pool,
		Recheck:  *recheck,
		RunTyped: ns.Typed(pool),
		CostHint: ns.Cost,
		OnCell: func(c campaign.CellResult) {
			e, _ := ns.Lookup(c.ID)
			fmt.Fprintf(w, "═══ %s (%s) — %s ═══\n", e.ID, e.Source, e.Title)
			if c.Err != nil {
				fmt.Fprintln(os.Stderr, "avsec:", c.Err)
				return
			}
			fmt.Fprintln(w, c.Report)
		},
	})
	if err != nil {
		return err
	}
	if *jsonFile != "" {
		if err := writeFileWith(*jsonFile, func(w io.Writer) error { return writeAllJSON(w, res, ns) }); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "avsec: %d experiments (%d rechecked) in %v\n",
		len(res.Cells), res.Rechecked(), res.Elapsed.Round(1e6))
	fmt.Fprint(os.Stderr, "avsec: "+res.RenderTimings(3))
	return nil
}

// writeAllJSON renders an `avsec all` result as a JSON array of runs,
// one element per experiment in paper order, carrying the typed metrics.
func writeAllJSON(w io.Writer, res *campaign.Result, ns *scenario.Namespace) error {
	type runDoc struct {
		ID      string       `json:"id"`
		Title   string       `json:"title"`
		Source  string       `json:"source"`
		Seed    int64        `json:"seed"`
		Metrics []sim.Metric `json:"metrics"`
	}
	docs := make([]runDoc, 0, len(res.Cells))
	for _, c := range res.Cells {
		e, _ := ns.Lookup(c.ID)
		m := c.Metrics
		if m == nil {
			m = []sim.Metric{}
		}
		docs = append(docs, runDoc{ID: c.ID, Title: e.Title, Source: e.Source, Seed: c.Seed, Metrics: m})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}

// runCampaign executes the multi-seed (experiment × seed) grid and
// prints the aggregate min/mean/max tables.
func runCampaign(args []string) {
	spec, jsonFile, timings := parseCampaign(args)
	res, err := campaign.Run(spec)
	printCampaign(res, err, jsonFile, timings)
	fmt.Fprintf(os.Stderr, "avsec: %d cells (%d rechecked, 0 divergences) in %v\n",
		len(res.Cells), res.Rechecked(), res.Elapsed.Round(1e6))
	fmt.Fprint(os.Stderr, "avsec: "+res.RenderTimings(3))
}

// parseCampaign turns the `avsec campaign` command line into the
// campaign it runs and the -json and -timings output options, exiting
// on a usage error.
func parseCampaign(args []string) (spec campaign.Spec, jsonFile string, timings bool) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	seeds := fs.Int("seeds", 8, "number of consecutive seeds, starting at -seed")
	base := fs.Int64("seed", 42, "base simulation seed")
	jobs := fs.Int("jobs", 0, "worker pool size (0 = GOMAXPROCS)")
	recheck := fs.Float64("recheck", 0.25, "fraction of cells double-executed as a determinism self-check")
	fs.StringVar(&jsonFile, "json", "", "write the aggregate results as JSON to this file")
	fs.BoolVar(&timings, "timings", false, "include per-cell wall-clock timings in the -json document (non-deterministic)")
	scnDir := fs.String("scenarios", "scenarios", "scenario corpus directory (scn-* ids; missing dir = none)")
	corpus := fs.Bool("corpus", false, "run every scenario in the -scenarios corpus instead of the registry")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	ns, err := scenario.LoadNamespace(*scnDir)
	if err != nil {
		fail(err)
	}
	ids, err := ns.Select(fs.Args(), *corpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avsec campaign:", err)
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "avsec campaign: -seeds must be >= 1")
		os.Exit(2)
	}
	pool := sim.NewWorkerPool(resolveJobs(*jobs))
	return campaign.Spec{
		IDs:      ids,
		Seeds:    campaign.Seeds(*base, *seeds),
		Pool:     pool,
		Recheck:  *recheck,
		RunTyped: ns.Typed(pool),
		CostHint: ns.Cost,
	}, jsonFile, timings
}

// printCampaign is the stdout tail `avsec campaign` and `avsec fleet`
// share. A failed campaign prints the healthy cells' aggregates, which
// still help diagnosis, and exits 1; a clean one writes the optional
// -json document and prints the summary.
func printCampaign(res *campaign.Result, err error, jsonFile string, timings bool) {
	if err != nil {
		if res != nil {
			fmt.Print(res.RenderSummary())
		}
		fmt.Fprintln(os.Stderr, "avsec:", err)
		os.Exit(1)
	}
	if jsonFile != "" {
		writeJSON := res.WriteJSON
		if timings {
			writeJSON = res.WriteJSONWithTimings
		}
		if err := writeFileWith(jsonFile, writeJSON); err != nil {
			fail(err)
		}
	}
	fmt.Print(res.RenderSummary())
}

// runGen drives the coverage-guided scenario generator: it grows a
// corpus from one recorded seed (writing MANIFEST.ini, INDEX.md, and
// one folder per scenario), or with -check regenerates the committed
// corpus from its manifest and fails on any byte difference — the CI
// freshness gate for scenarios/.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "scenarios", "corpus directory")
	seed := fs.Int64("seed", 7, "generator seed (recorded in the manifest)")
	target := fs.Int("target", 112, "number of scenarios to generate")
	maxIters := fs.Int("max-iters", 0, "mutation-search iteration bound (0 = 64×target)")
	check := fs.Bool("check", false, "regenerate from -out/MANIFEST.ini and fail on any byte difference")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *check {
		if err := scenario.CheckCorpus(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "avsec gen: corpus %s matches its manifest byte for byte\n", *out)
		return nil
	}
	c, err := scenario.Generate(scenario.GenConfig{Seed: *seed, Target: *target, MaxIters: *maxIters})
	if err != nil {
		return err
	}
	if err := c.WriteCorpus(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "avsec gen: wrote %d scenarios (%d coverage keys, %d search iterations) to %s\n",
		len(c.Specs), len(c.Keys), c.Iters, *out)
	return nil
}

// runScenarios lists the loaded scenario corpus in `avsec list` format.
func runScenarios(args []string) {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	dir := fs.String("scenarios", "scenarios", "scenario corpus directory")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	specs, err := scenario.LoadDir(*dir)
	if err != nil {
		fail(err)
	}
	for _, sp := range specs {
		title := sp.Title
		if title == "" {
			title = scenario.AutoTitle(sp)
		}
		fmt.Printf("%-13s %-10s %s\n", scenario.IDPrefix+sp.Name, sp.Attacker.Type, title)
	}
	fmt.Fprintf(os.Stderr, "avsec: %d scenarios under %s\n", len(specs), *dir)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  avsec list                                     list experiments
  avsec run <id> [-seed N] [-jobs K] [-trace F] [-json F] [-csv F] [-cpuprofile F] [-memprofile F]
                                                 run one experiment with optional structured
                                                 trace, typed metrics, and pprof output;
                                                 -jobs bounds replicate fan-out (output is
                                                 byte-identical for any value)
  avsec all [-seed N] [-jobs K] [-recheck F] [-json F]
                                                 run every experiment (pooled, ordered output;
                                                 cells and replicates share the -jobs budget)
  avsec campaign [-seeds N] [-seed B] [-jobs K] [-recheck F] [-json F] [-timings]
                 [-scenarios D] [-corpus] [ids...]
                                                 multi-seed campaign with aggregate stats,
                                                 determinism self-check, and slowest-cell
                                                 timing diagnostics on stderr
  avsec fleet -workers URL[,URL...] [-seeds N] [-seed B] [-chunk N] [-inflight K] [-jobs K]
              [-recheck F] [-deadline-ms N] [-no-cache] [-json F] [-timings] [-v] [ids...]
                                                 shard one campaign across avsecd workers;
                                                 stdout is byte-identical to avsec campaign
                                                 for the same grid (docs/FLEET.md)
  avsec expmd                                    regenerate EXPERIMENTS.md on stdout from
                                                 the registry and a seed-42 typed run
  avsec gen [-out D] [-seed N] [-target N] [-max-iters N] [-check]
                                                 grow the coverage-guided scenario corpus
                                                 (-check: regenerate from D/MANIFEST.ini and
                                                 fail on any byte difference)
  avsec scenarios [-scenarios D]                 list the scenario corpus (run with
                                                 'avsec run scn-<name>')
  avsec ext [-kind K] [-json]                    list registered extensions by kind —
                                                 channel suites and attacks, drop-ins
                                                 included
  avsec dot                                      emit the Fig. 9 model as Graphviz

run and campaign also resolve scn-* scenario ids from -scenarios
(default "scenarios"); campaign -corpus runs the whole corpus.
campaigns are also served over HTTP by the avsecd daemon (go run
./cmd/avsecd, API reference in docs/DAEMON.md) with byte-identical
output and a content-addressed result cache.`)
}
