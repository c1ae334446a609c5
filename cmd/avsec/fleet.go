package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/fleet"
	"autosec/internal/scenario"
)

// runFleet shards one campaign across N avsecd workers through the
// internal/fleet coordinator. stdout is byte-identical to `avsec
// campaign` for the same grid — the whole point of the coordinator —
// while stderr carries the fleet-only diagnostics (per-worker share,
// dispatch/steal counters).
func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	workers := fs.String("workers", "", "comma-separated avsecd base URLs (required), e.g. http://127.0.0.1:8787,http://10.0.0.2:8787")
	seeds := fs.Int("seeds", 8, "number of consecutive seeds, starting at -seed")
	base := fs.Int64("seed", 42, "base simulation seed")
	recheck := fs.Float64("recheck", 0.25, "fraction of cells double-executed as a determinism self-check (re-dispatched, usually to a different worker)")
	chunkSize := fs.Int("chunk", 4, "seeds per dispatched chunk (scheduling only; output bytes never depend on it)")
	inflight := fs.Int("inflight", 0, "concurrent chunk requests per worker (0 = derive from each worker's advertised capacity)")
	jobs := fs.Int("jobs", 0, "per-chunk worker pool size forwarded to each daemon (0 = each worker's default)")
	deadline := fs.Int("deadline-ms", 0, "per-chunk deadline in milliseconds, enforced client-side and forwarded as deadline_ms (0 = none)")
	noCache := fs.Bool("no-cache", false, "ask workers to bypass their result caches")
	jsonFile := fs.String("json", "", "write the aggregate results as JSON to this file")
	timings := fs.Bool("timings", false, "include per-cell coordinator-observed timings in the -json document (non-deterministic)")
	verbose := fs.Bool("v", false, "log scheduling events (dispatches, retries, steals, worker deaths) to stderr")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *workers == "" {
		fmt.Fprintln(os.Stderr, "avsec fleet: -workers is required (comma-separated avsecd base URLs)")
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "avsec fleet: -seeds must be >= 1")
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	// Default grid: the registry in paper order, exactly like `avsec
	// campaign`. Explicit ids (including scn-* ids) are validated by the
	// workers against their own corpus at dispatch time.
	ns, _ := scenario.LoadNamespace("") // the registry alone always loads
	ids := fs.Args()
	if len(ids) == 0 {
		ids, _ = ns.Select(nil, false)
	}

	cfg := fleet.Config{
		Workers:      urls,
		IDs:          ids,
		Seeds:        campaign.Seeds(*base, *seeds),
		ChunkSize:    *chunkSize,
		InFlight:     *inflight,
		Jobs:         *jobs,
		Recheck:      *recheck,
		ChunkTimeout: time.Duration(*deadline) * time.Millisecond,
		CostHint:     ns.Cost,
	}
	if *noCache {
		f := false
		cfg.Cache = &f
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "avsec fleet: "+format+"\n", args...)
		}
	}

	rep, err := fleet.Run(context.Background(), cfg)
	if err != nil && rep == nil {
		fail(err)
	}
	res := rep.Result
	printCampaign(res, err, *jsonFile, *timings)
	st := rep.Stats
	fmt.Fprintf(os.Stderr, "avsec: %d cells (%d rechecked, 0 divergences) across %d workers in %v\n",
		st.Cells, st.Rechecks, len(rep.Workers), res.Elapsed.Round(1e6))
	fmt.Fprintf(os.Stderr, "avsec: %d chunks, %d dispatches (%d re-dispatched, %d straggler re-issues, %d duplicate deliveries)\n",
		st.Chunks, st.Dispatches, st.Redispatches, st.Steals, st.Duplicates)
	for _, w := range rep.Workers {
		note := ""
		if w.Dead {
			note = "  [retired]"
		}
		fmt.Fprintf(os.Stderr, "avsec:   %s  slots %d  chunks %d  cells %d  fails %d%s\n",
			w.URL, w.Slots, w.Chunks, w.Cells, w.Fails, note)
	}
}
