package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/config"
	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/resultcache"
	"autosec/internal/scenario"
	"autosec/internal/server"
	"autosec/internal/sim"
)

// scenarioDir is the committed corpus, relative to the repository root
// the benchmark runs from.
const scenarioDir = "scenarios"

// recheck is the CLI's default determinism self-check fraction.
const recheck = 0.25

// cellKey names one grid cell.
type cellKey struct {
	id   string
	seed int64
}

// digest identifies a cell's output (report bytes and typed metrics) or
// a rendered summary, so passes are checked without keeping their text.
type digest [32]byte

func cellDigest(report string, metrics []sim.Metric) digest {
	h := sha256.New()
	io.WriteString(h, report)
	var b [8]byte
	for _, m := range metrics {
		h.Write([]byte{0})
		io.WriteString(h, m.Name)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Value))
		h.Write(b[:])
	}
	var d digest
	h.Sum(d[:0])
	return d
}

func textDigest(s string) digest { return sha256.Sum256([]byte(s)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// expectation is the reference output of one pass grid.
type expectation struct {
	summary digest
	cells   []digest
}

// workload is one closed loop of passes. A pass is one campaign.Run of
// the grid (in-process workloads) or one fleet.Run sweep.
type workload interface {
	// pass runs pass k; a non-nil rec records its spans.
	pass(k int, rec *recorder) (*passOut, error)
	// warmup is how many leading passes are untimed.
	warmup() int
	// reference computes, on another execution path, the expected output
	// of every pass grid in passes. It counts the work of one pass grid
	// through ct, and returns sample cell results for the cache probe.
	reference(passes []*passOut, ct *countTracer) (func(seeds []int64) expectation, []*resultcache.Entry, error)
	// workCounts are exact work counts beyond the common ones.
	workCounts() map[string]int64
	close()
}

// passOut is what one pass delivered and how long it took.
type passOut struct {
	k        int
	seeds    []int64
	wall     time.Duration
	renderMs float64
	summary  digest
	cells    []digest
	bad      []bool // cell error or recheck divergence
	cellMs   []float64
	reqMs    []float64
	reqs     int
	reqFails int
	rechecks int
	rssMB    float64 // peak resident set sampled during the pass
	steal    float64 // share of machine CPU time stolen during the pass
	errs     []string

	// Traced passes only.
	busy        time.Duration // cell execution time (daemon handler time in a sweep)
	recheckBusy time.Duration // the part of busy spent re-executing a cell
	executions  int           // cell executions (sweeps: cell deliveries)
	allocBytes  uint64

	// Fleet sweeps only.
	stats       fleet.Stats
	slots       int
	reqBusy     time.Duration
	handlerMs   []float64
	transportMs []float64
	bytes       int64
	firstCellMs float64
	cache       resultcache.Stats
}

func (p *passOut) noteErr(format string, args ...any) {
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// fill records a pass's merged cells and rendered summary.
func (p *passOut) fill(res *campaign.Result, summary string) {
	p.summary = textDigest(summary)
	for _, c := range res.Cells {
		p.cells = append(p.cells, cellDigest(c.Report, c.Metrics))
		bad := c.Err != nil || c.Diverged || c.MetricsDiverged
		p.bad = append(p.bad, bad)
		if bad {
			p.noteErr("pass %d: %s seed %d: err=%v diverged=%v", p.k, c.ID, c.Seed, c.Err, c.Diverged || c.MetricsDiverged)
		}
		p.cellMs = append(p.cellMs, ms(c.Elapsed))
		if c.Rechecked {
			p.rechecks++
		}
	}
}

// registryCost is the registry's cost hint, as the CLI wires it.
func registryCost() map[string]int {
	cost := make(map[string]int)
	for _, e := range core.Experiments() {
		cost[e.ID] = e.Cost
	}
	return cost
}

// runCell executes one cell the way `avsec campaign` does: compiled
// scenarios through core.RunResultOf, registry ids through
// core.RunExperimentResult.
func runCell(scn map[string]core.Experiment, id string, seed int64, opt core.RunOptions) (*core.RunResult, error) {
	if e, ok := scn[id]; ok {
		return core.RunResultOf(e, seed, opt)
	}
	return core.RunExperimentResult(id, seed, opt)
}

// inproc is the registry or corpus workload: back-to-back campaign.Run
// calls over one grid with the CLI's wiring (shared pool, cost hint).
type inproc struct {
	ids   []string
	seeds []int64
	scn   map[string]core.Experiment
	cost  map[string]int
	jobs  int
	layer string              // layer a cell's span is charged to
	group func(string) string // attribution group of a cell
}

// setupInproc is the set-up `avsec campaign` performs: registry lookup
// and scenario.CompileDir.
func setupInproc(corpus bool, base int64) (*inproc, error) {
	scns, err := scenario.CompileDir(scenarioDir)
	if err != nil {
		return nil, err
	}
	w := &inproc{scn: make(map[string]core.Experiment), cost: registryCost(), jobs: runtime.NumCPU()}
	for _, e := range scns {
		w.scn[e.ID] = e
		w.cost[e.ID] = e.Cost
	}
	if corpus {
		if len(scns) == 0 {
			return nil, fmt.Errorf("no scenarios under %s", scenarioDir)
		}
		for _, e := range scns {
			w.ids = append(w.ids, e.ID)
		}
		w.seeds = campaign.Seeds(base, 16)
		w.layer = "scenario"
	} else {
		for _, e := range core.Experiments() {
			w.ids = append(w.ids, e.ID)
		}
		w.seeds = campaign.Seeds(base, 8)
		w.layer = "core"
		w.group = coreGroup
	}
	return w, nil
}

func (w *inproc) warmup() int                  { return 0 }
func (w *inproc) workCounts() map[string]int64 { return nil }
func (w *inproc) close()                       {}

func (w *inproc) spec(pool *sim.WorkerPool, jobs int, run campaign.TypedRunFunc) campaign.Spec {
	return campaign.Spec{
		IDs: w.ids, Seeds: w.seeds, Jobs: jobs, Pool: pool, Recheck: recheck,
		RunTyped: run, CostHint: func(id string) int { return w.cost[id] },
	}
}

func (w *inproc) pass(k int, rec *recorder) (*passOut, error) {
	out := &passOut{k: k, seeds: w.seeds, slots: w.jobs}
	pool := sim.NewWorkerPool(w.jobs)
	var passID int64
	if rec != nil {
		passID = rec.newID()
	}
	var mu sync.Mutex
	seen := make(map[cellKey]bool)
	run := func(id string, seed int64) (string, []sim.Metric, error) {
		t0 := now()
		r, err := runCell(w.scn, id, seed, core.RunOptions{Pool: pool})
		t1 := now()
		mu.Lock()
		out.reqMs = append(out.reqMs, ms(t1-t0))
		if rec != nil {
			key := cellKey{id, seed}
			out.busy += t1 - t0
			if seen[key] {
				out.recheckBusy += t1 - t0
			}
			seen[key] = true
			out.executions++
			g := ""
			if w.group != nil {
				g = w.group(id)
			}
			rec.add(span{ID: rec.newID(), Parent: passID, Pass: k, Layer: w.layer, Group: g, Name: id, Start: t0, End: t1})
		}
		mu.Unlock()
		if err != nil {
			return "", nil, err
		}
		return r.Report, r.Metrics, nil
	}
	var m0 runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&m0)
	}
	start := now()
	res, err := campaign.Run(w.spec(pool, w.jobs, run))
	if res == nil {
		return nil, err
	}
	rs := now()
	summary := res.RenderSummary()
	end := now()
	out.wall = end - start
	out.renderMs = ms(end - rs)
	out.reqs = len(out.reqMs)
	out.fill(res, summary)
	if rec != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		rec.add(span{ID: rec.newID(), Parent: passID, Pass: k, Layer: "campaign", Group: "render", Start: rs, End: end})
		rec.add(span{ID: passID, Pass: k, Layer: "campaign", Start: start, End: end})
	}
	return out, nil
}

// reference is the serial path: campaign.Run with jobs=1 and a
// one-slot pool, so no cell or replicate runs concurrently.
func (w *inproc) reference(_ []*passOut, ct *countTracer) (func([]int64) expectation, []*resultcache.Entry, error) {
	pool := sim.NewWorkerPool(1)
	res, err := campaign.Run(w.spec(pool, 1, func(id string, seed int64) (string, []sim.Metric, error) {
		r, err := runCell(w.scn, id, seed, core.RunOptions{Pool: pool, Tracer: ct})
		if err != nil {
			return "", nil, err
		}
		return r.Report, r.Metrics, nil
	}))
	if err != nil {
		return nil, nil, fmt.Errorf("reference campaign: %w", err)
	}
	exp := expectation{summary: textDigest(res.RenderSummary())}
	var entries []*resultcache.Entry
	for _, c := range res.Cells {
		exp.cells = append(exp.cells, cellDigest(c.Report, c.Metrics))
		entries = append(entries, &resultcache.Entry{Report: c.Report, Metrics: c.Metrics})
	}
	return func([]int64) expectation { return exp }, entries, nil
}

// coreGroups are the registry experiments the attribution table and the
// core.cell_ms metrics break out; the rest are grouped together.
var coreGroups = []string{"exp-ca", "ablate-sts", "fig2", "fig9", "fig8", "ablate-mac", "exp-stealth"}

func coreGroup(id string) string {
	for _, g := range coreGroups {
		if g == id {
			return g
		}
	}
	return "rest"
}

// fleetSweep is a closed loop of fleet.Run sweeps from one coordinator
// over two in-process daemons that share one result cache.
type fleetSweep struct {
	ids     []string
	window  func(k int) []int64
	cost    map[string]int
	tp      *transport
	client  *http.Client
	daemons []*daemon
	servers []*httptest.Server
	urls    []string
	// coldStores is the cache stores of the first, all-cold sweep.
	coldStores uint64
}

// daemons is the fleet size; each daemon runs one job with one chunk in
// flight, so the fleet holds two connections.
const daemons = 2

// setupFleet starts the daemons on an empty cache under cacheDir and
// performs the coordinator's handshake. With ids nil the sweep covers
// the corpus the daemons serve.
func setupFleet(ids []string, window func(int) []int64, cacheDir string) (f *fleetSweep, err error) {
	f = &fleetSweep{ids: ids, window: window, cost: registryCost(), tp: newTransport()}
	f.client = &http.Client{Transport: f.tp}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	for i := 0; i < daemons; i++ {
		cfg := config.Default()
		cfg.Jobs = 1
		cfg.ScenarioDir = scenarioDir
		cfg.Cache.Dir = cacheDir
		s, err := server.New(cfg)
		if err != nil {
			return f, err
		}
		d := &daemon{h: s.Handler()}
		ts := httptest.NewServer(d)
		f.daemons = append(f.daemons, d)
		f.servers = append(f.servers, ts)
		f.urls = append(f.urls, ts.URL)
	}
	if _, err := fleet.HandshakeAll(context.Background(), f.client, f.urls); err != nil {
		return f, err
	}
	if f.ids == nil {
		var list []struct {
			ID string `json:"id"`
		}
		if err := f.getJSON(f.urls[0]+"/api/v1/scenarios", &list); err != nil {
			return f, err
		}
		if len(list) == 0 {
			return f, fmt.Errorf("daemon serves no scenarios from %s", scenarioDir)
		}
		for _, s := range list {
			f.ids = append(f.ids, s.ID)
		}
	}
	return f, nil
}

func (f *fleetSweep) getJSON(url string, v any) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cacheStats sums GET /api/v1/cache over the daemons.
func (f *fleetSweep) cacheStats() (resultcache.Stats, error) {
	var sum resultcache.Stats
	for _, u := range f.urls {
		var doc struct {
			Stats resultcache.Stats `json:"stats"`
		}
		if err := f.getJSON(u+"/api/v1/cache", &doc); err != nil {
			return sum, err
		}
		sum.Hits += doc.Stats.Hits
		sum.Misses += doc.Stats.Misses
		sum.Stores += doc.Stats.Stores
		sum.Corrupt += doc.Stats.Corrupt
	}
	return sum, nil
}

// warmup is the first, all-cold sweep.
func (f *fleetSweep) warmup() int { return 1 }

func (f *fleetSweep) workCounts() map[string]int64 {
	return map[string]int64{"cold_sweep.cache_stores": int64(f.coldStores)}
}

func (f *fleetSweep) close() {
	f.tp.base.CloseIdleConnections()
	for _, ts := range f.servers {
		ts.Close()
	}
}

func (f *fleetSweep) pass(k int, rec *recorder) (*passOut, error) {
	seeds := f.window(k)
	out := &passOut{k: k, seeds: seeds, slots: len(f.urls)}
	f.tp.rec.Store(rec)
	for _, d := range f.daemons {
		d.rec.Store(rec)
	}
	var before resultcache.Stats
	var m0 runtime.MemStats
	var firstCell time.Duration
	cfg := fleet.Config{
		Workers: f.urls, IDs: f.ids, Seeds: seeds,
		ChunkSize: 4, InFlight: 1, Recheck: recheck,
		CostHint: func(id string) int { return f.cost[id] },
		Client:   f.client,
	}
	if rec != nil {
		var err error
		if before, err = f.cacheStats(); err != nil {
			return nil, err
		}
		cfg.OnCell = func(campaign.CellResult) {
			if firstCell == 0 {
				firstCell = now()
			}
		}
		runtime.ReadMemStats(&m0)
	}
	start := now()
	rep, err := fleet.Run(context.Background(), cfg)
	if rep == nil {
		return nil, err
	}
	rs := now()
	summary := rep.Result.RenderSummary()
	end := now()
	out.wall = end - start
	out.renderMs = ms(end - rs)
	out.fill(rep.Result, summary)
	out.stats = rep.Stats
	for _, ws := range rep.Workers {
		out.executions += ws.Cells
	}
	if k == 0 {
		st, err := f.cacheStats()
		if err != nil {
			return nil, err
		}
		f.coldStores = st.Stores
	}
	reqs := f.tp.take()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].start < reqs[j].start })
	for _, rq := range reqs {
		out.reqs++
		switch {
		case rq.failed:
			out.reqFails++
			out.noteErr("sweep %d: chunk request failed (HTTP %d, %d bytes)", k, rq.status, rq.bytes)
		case !rq.canceled:
			out.reqMs = append(out.reqMs, ms(rq.end-rq.start))
		}
	}
	if rec == nil {
		return out, nil
	}

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	after, err := f.cacheStats()
	if err != nil {
		return nil, err
	}
	out.cache = resultcache.Stats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Stores: after.Stores - before.Stores, Corrupt: after.Corrupt - before.Corrupt,
	}
	if firstCell > 0 {
		out.firstCellMs = ms(firstCell - start)
	}

	passID := rec.newID()
	rec.add(span{ID: passID, Pass: k, Layer: "fleet", Start: start, End: end})
	rec.add(span{ID: rec.newID(), Parent: passID, Pass: k, Layer: "campaign", Group: "render", Start: rs, End: end})
	handlers := make(map[int64]handlerSpan)
	for _, d := range f.daemons {
		for _, h := range d.take() {
			handlers[h.parent] = h
		}
	}
	seen := make(map[cellKey]bool)
	for _, rq := range reqs {
		again := len(rq.cells) > 0
		for _, c := range rq.cells {
			again = again && seen[c]
			seen[c] = true
		}
		rec.add(span{ID: rq.spanID, Parent: passID, Pass: k, Layer: "fleet", Group: "request", Start: rq.start, End: rq.end})
		out.reqBusy += rq.end - rq.start
		out.bytes += rq.bytes
		h, ok := handlers[rq.spanID]
		if !ok {
			continue
		}
		d := h.end - h.start
		rec.add(span{ID: rec.newID(), Parent: rq.spanID, Pass: k, Layer: "server", Start: h.start, End: h.end})
		out.busy += d
		if again {
			out.recheckBusy += d
		}
		out.handlerMs = append(out.handlerMs, ms(d))
		if !rq.failed && !rq.canceled {
			out.transportMs = append(out.transportMs, ms(rq.end-rq.start-d))
		}
	}
	return out, nil
}

// reference runs an in-process campaign of each sweep's grid. Every
// cell of the sweeps' seed union is computed once, the first sweep's
// grid with its rechecks and the work counter; each sweep's campaign is
// then replayed from those results, so its summary comes from
// campaign.Run itself.
func (f *fleetSweep) reference(passes []*passOut, ct *countTracer) (func([]int64) expectation, []*resultcache.Entry, error) {
	scns, err := scenario.CompileDir(scenarioDir)
	if err != nil {
		return nil, nil, err
	}
	scn := make(map[string]core.Experiment, len(scns))
	for _, e := range scns {
		scn[e.ID] = e
	}
	memo := make(map[cellKey]*resultcache.Entry)
	var entries []*resultcache.Entry
	var mu sync.Mutex
	jobs := runtime.NumCPU()
	pool := sim.NewWorkerPool(jobs)
	compute := func(seeds []int64, rc float64, tr sim.Tracer) error {
		_, err := campaign.Run(campaign.Spec{
			IDs: f.ids, Seeds: seeds, Jobs: jobs, Pool: pool, Recheck: rc,
			CostHint: func(id string) int { return f.cost[id] },
			RunTyped: func(id string, seed int64) (string, []sim.Metric, error) {
				r, err := runCell(scn, id, seed, core.RunOptions{Pool: pool, Tracer: tr})
				if err != nil {
					return "", nil, err
				}
				mu.Lock()
				if _, ok := memo[cellKey{id, seed}]; !ok {
					e := &resultcache.Entry{Report: r.Report, Metrics: r.Metrics}
					memo[cellKey{id, seed}] = e
					entries = append(entries, e)
				}
				mu.Unlock()
				return r.Report, r.Metrics, nil
			},
		})
		return err
	}
	first := f.window(0)
	if err := compute(first, recheck, ct); err != nil {
		return nil, nil, fmt.Errorf("reference campaign: %w", err)
	}
	var rest []int64
	have := make(map[int64]bool)
	for _, s := range first {
		have[s] = true
	}
	for _, p := range passes {
		for _, s := range p.seeds {
			if !have[s] {
				have[s] = true
				rest = append(rest, s)
			}
		}
	}
	if len(rest) > 0 {
		if err := compute(rest, 0, nil); err != nil {
			return nil, nil, fmt.Errorf("reference campaign: %w", err)
		}
	}
	expect := func(seeds []int64) expectation {
		res, _ := campaign.Run(campaign.Spec{
			IDs: f.ids, Seeds: seeds, Jobs: 1, Recheck: recheck,
			RunTyped: func(id string, seed int64) (string, []sim.Metric, error) {
				e := memo[cellKey{id, seed}]
				return e.Report, e.Metrics, nil
			},
		})
		exp := expectation{summary: textDigest(res.RenderSummary())}
		for _, c := range res.Cells {
			exp.cells = append(exp.cells, cellDigest(c.Report, c.Metrics))
		}
		return exp
	}
	return expect, entries, nil
}

// slidingWindow is the fleet-sweep seed schedule: 8 seeds, sliding by 2
// per sweep, so a steady-state sweep reads ¾ of its cells from the
// cache and computes ¼.
func slidingWindow(base int64) func(int) []int64 {
	return func(k int) []int64 { return campaign.Seeds(base+2*int64(k), 8) }
}

// suiteKey maps a Table I suite name to its metric suffix.
func suiteKey(name string) string {
	switch name {
	case "(D)TLS":
		return "tls"
	case "IPsec ESP":
		return "ipsec"
	}
	return strings.ToLower(name)
}
