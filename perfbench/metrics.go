package main

import (
	"fmt"
	"strings"
	"time"
)

// spec names a reported metric, as BENCHMARK.json lists it.
type spec struct {
	name   string
	unit   string
	better string
}

// endToEndMetrics are what a user of `avsec campaign` / `avsec fleet`
// sees, measured with tracing off. error_rate is printed too, but it is
// the result line's failed/attempted rather than a metric, because it is
// 0 on a correct tree.
var endToEndMetrics = []spec{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"cell_ms.p50", "ms", "lower"},
	{"cell_ms.p99", "ms", "lower"},
	{"request_ms.p50", "ms", "lower"},
	{"request_ms.p99", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetrics come from the traced run, one group per module.
var layerMetrics = []spec{
	{"trace.overhead", "ratio", "lower"},

	{"campaign.busy_s", "s", "lower"},
	{"campaign.idle_share", "ratio", "lower"},
	{"campaign.recheck_share", "ratio", "lower"},
	{"campaign.render_ms", "ms", "lower"},

	{"core.cell_ms.exp-ca", "ms", "lower"},
	{"core.cell_ms.ablate-sts", "ms", "lower"},
	{"core.cell_ms.fig2", "ms", "lower"},
	{"core.cell_ms.fig9", "ms", "lower"},
	{"core.cell_ms.fig8", "ms", "lower"},
	{"core.cell_ms.ablate-mac", "ms", "lower"},
	{"core.cell_ms.exp-stealth", "ms", "lower"},
	{"core.cell_ms.rest", "ms", "lower"},
	{"core.alloc_kb_per_cell", "KiB", "lower"},

	{"scenario.compile_ms", "ms", "lower"},
	{"scenario.cell_ms.secoc", "ms", "lower"},
	{"scenario.cell_ms.tls", "ms", "lower"},
	{"scenario.cell_ms.ipsec", "ms", "lower"},
	{"scenario.cell_ms.macsec", "ms", "lower"},
	{"scenario.cell_ms.cansec", "ms", "lower"},

	{"sim.kernel_events", "count", "lower"},
	{"sim.rng_draws", "count", "lower"},
	{"sim.normfill_ns_per_sample", "ns", "lower"},

	{"uwb.measure_us", "us", "lower"},
	{"uwb.correlate_us", "us", "lower"},
	{"uwb.propagate_us", "us", "lower"},

	{"sensor.encounter_ms.verified", "ms", "lower"},
	{"sensor.encounter_ms.naive", "ms", "lower"},

	{"secchan.roundtrip_ns.secoc", "ns", "lower"},
	{"secchan.roundtrip_ns.tls", "ns", "lower"},
	{"secchan.roundtrip_ns.ipsec", "ns", "lower"},
	{"secchan.roundtrip_ns.macsec", "ns", "lower"},
	{"secchan.roundtrip_ns.cansec", "ns", "lower"},
	{"secchan.batch_ns_per_frame.secoc", "ns", "lower"},

	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.stores", "count", "lower"},
	{"cache.corrupt", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.get_us", "us", "lower"},
	{"cache.put_us", "us", "lower"},

	{"server.handler_ms.p50", "ms", "lower"},
	{"server.handler_ms.p99", "ms", "lower"},
	{"server.bytes_per_cell", "B", "lower"},

	{"fleet.dispatches", "count", "lower"},
	{"fleet.redispatches", "count", "lower"},
	{"fleet.steals", "count", "lower"},
	{"fleet.duplicates", "count", "lower"},
	{"fleet.useful_ratio", "ratio", "higher"},
	{"fleet.transport_ms.p50", "ms", "lower"},
	{"fleet.worker_idle_share", "ratio", "lower"},
	{"fleet.first_cell_ms", "ms", "lower"},
}

// cellsPerSecond is delivered grid cells over the passes' wall time.
func cellsPerSecond(passes []*passOut) float64 {
	var cells int
	for _, p := range passes {
		cells += len(p.cells)
	}
	return float64(cells) / wallOf(passes).Seconds()
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// layers fills the per-layer metrics of a traced run. Layer costs come
// from the traced passes where the workload exercises the layer, and
// from the probes otherwise; each metric's note says which.
func (r *record) layers(untraced, traced []*passOut, tr *recorder, ct *countTracer, pr *probes) {
	r.add("trace.overhead", cellsPerSecond(untraced)/cellsPerSecond(traced)-1, "ratio", len(traced),
		fmt.Sprintf("untraced %.4g vs traced %.4g cells/s", cellsPerSecond(untraced), cellsPerSecond(traced)))
	spans := tr.all()
	r.spans = spans
	r.Attribution = attribution(spans)

	// campaign: cell execution inside the passes. In a sweep the cells
	// execute inside the daemons' handlers.
	var busy, recheckBusy, wall time.Duration
	var execs int
	var alloc uint64
	var renders []float64
	for _, p := range traced {
		busy += p.busy
		recheckBusy += p.recheckBusy
		wall += p.wall * time.Duration(p.slots)
		execs += p.executions
		alloc += p.allocBytes
		renders = append(renders, p.renderMs)
	}
	n := len(traced)
	r.add("campaign.busy_s", busy.Seconds()/float64(n), "s", n, "per pass")
	r.add("campaign.idle_share", 1-share(busy, wall), "ratio", n, "1 - busy / (jobs x wall)")
	r.add("campaign.recheck_share", share(recheckBusy, busy), "ratio", n, "busy time re-executing a cell")
	r.add("campaign.render_ms", median(renders), "ms", n, "RenderSummary")

	// core and scenario: per-cell cost by experiment and by suite.
	cellMs := make(map[string][]float64)
	for _, s := range spans {
		if s.Name == "" {
			continue
		}
		key := s.Layer + "." + s.Group
		cellMs[key] = append(cellMs[key], ms(s.dur()))
	}
	for _, g := range append(append([]string(nil), coreGroups...), "rest") {
		r.fromSpansOrProbe("core.cell_ms."+g, cellMs["core."+g], pr)
	}
	r.add("core.alloc_kb_per_cell", float64(alloc)/float64(max(execs, 1))/1024, "KiB", execs, "heap bytes allocated per cell execution")
	r.copyProbe(pr, "scenario.compile_ms")
	for _, s := range []string{"secoc", "tls", "ipsec", "macsec", "cansec"} {
		r.fromSpansOrProbe("scenario.cell_ms."+s, cellMs["scenario."+s], pr)
	}

	// sim: exact work counts of one pass grid, and the sampler probe.
	r.add("sim.kernel_events", float64(ct.events.Load()), "count", 0, "executed kernel events, one pass grid")
	r.add("sim.rng_draws", float64(ct.draws.Load()), "count", 0, "root RNG draws at run end, one pass grid")
	for _, name := range []string{
		"sim.normfill_ns_per_sample", "uwb.measure_us", "uwb.correlate_us", "uwb.propagate_us",
		"sensor.encounter_ms.verified", "sensor.encounter_ms.naive",
		"secchan.roundtrip_ns.secoc", "secchan.roundtrip_ns.tls", "secchan.roundtrip_ns.ipsec",
		"secchan.roundtrip_ns.macsec", "secchan.roundtrip_ns.cansec", "secchan.batch_ns_per_frame.secoc",
		"cache.get_us", "cache.put_us",
	} {
		r.copyProbe(pr, name)
	}

	// resultcache, server and fleet: the sweeps themselves, or the
	// serving probe for the in-process workloads.
	src, sweeps := "traced sweeps", traced
	if pr.serving != nil {
		src, sweeps = "serving probe", pr.serving
	}
	r.serving(sweeps, src)
}

// fromSpansOrProbe reports the median of span samples, or the probe's
// value when the workload's passes did not run such cells.
func (r *record) fromSpansOrProbe(name string, samples []float64, pr *probes) {
	if len(samples) > 0 {
		r.add(name, percentile(samples, 50), "ms", len(samples), "median of traced cells")
		return
	}
	r.copyProbe(pr, name)
}

func (r *record) copyProbe(pr *probes, name string) {
	m, ok := pr.values[name]
	if !ok {
		r.fail(fmt.Errorf("probe %s produced no value", name))
		return
	}
	r.Metrics = append(r.Metrics, m)
}

// serving reports the cache, daemon and coordinator metrics of sweeps.
func (r *record) serving(sweeps []*passOut, src string) {
	var c struct{ hits, misses, stores, corrupt uint64 }
	var st struct{ dispatches, redispatches, steals, duplicates, useful int }
	var handler, transport, first []float64
	var bytes int64
	var deliveries int
	var reqBusy, wall time.Duration
	for _, p := range sweeps {
		c.hits += p.cache.Hits
		c.misses += p.cache.Misses
		c.stores += p.cache.Stores
		c.corrupt += p.cache.Corrupt
		st.dispatches += p.stats.Dispatches
		st.redispatches += p.stats.Redispatches
		st.steals += p.stats.Steals
		st.duplicates += p.stats.Duplicates
		st.useful += p.stats.Cells + p.stats.Rechecks
		handler = append(handler, p.handlerMs...)
		transport = append(transport, p.transportMs...)
		first = append(first, p.firstCellMs)
		bytes += p.bytes
		deliveries += p.executions
		reqBusy += p.reqBusy
		wall += p.wall * time.Duration(p.slots)
	}
	n := len(sweeps)
	per := func(v int) float64 { return float64(v) / float64(n) }
	note := src + ", per sweep"
	r.add("cache.hits", per(int(c.hits)), "count", n, note)
	r.add("cache.misses", per(int(c.misses)), "count", n, note)
	r.add("cache.stores", per(int(c.stores)), "count", n, note)
	r.add("cache.corrupt", per(int(c.corrupt)), "count", n, note)
	ratio := 0.0
	if c.hits+c.misses > 0 {
		ratio = float64(c.hits) / float64(c.hits+c.misses)
	}
	r.add("cache.hit_ratio", ratio, "ratio", n, src)
	r.add("server.handler_ms.p50", percentile(handler, 50), "ms", len(handler), src)
	r.add("server.handler_ms.p99", percentile(handler, 99), "ms", len(handler), strings.TrimSuffix(src+"; "+tailNote(len(handler)), "; "))
	r.add("server.bytes_per_cell", float64(bytes)/float64(max(deliveries, 1)), "B", deliveries, src)
	r.add("fleet.dispatches", per(st.dispatches), "count", n, note)
	r.add("fleet.redispatches", per(st.redispatches), "count", n, note)
	r.add("fleet.steals", per(st.steals), "count", n, note)
	r.add("fleet.duplicates", per(st.duplicates), "count", n, note)
	r.add("fleet.useful_ratio", float64(st.useful)/float64(max(deliveries, 1)), "ratio", deliveries, src+", (cells + rechecks) / deliveries")
	r.add("fleet.transport_ms.p50", percentile(transport, 50), "ms", len(transport), src+", client minus handler time")
	r.add("fleet.worker_idle_share", 1-share(reqBusy, wall), "ratio", n, src+", no chunk in flight")
	r.add("fleet.first_cell_ms", median(first), "ms", n, src)
}

// tailNote flags a p99 read off fewer than minBeyond samples beyond it
// and names the highest percentile that has enough.
func tailNote(n int) string {
	p, ok := highestTail(n)
	switch {
	case !ok:
		return fmt.Sprintf("no percentile of n=%d has %d samples beyond it", n, minBeyond)
	case p < 99:
		return fmt.Sprintf("p99 has fewer than %d samples beyond it; p%g is the highest that has", minBeyond, p)
	}
	return ""
}
