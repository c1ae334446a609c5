package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"autosec/internal/campaign"
	"autosec/internal/scenario"
)

// TestSerialParallelCrossCheckHTTP extends the replicate-pool
// cross-check (internal/core's TestSerialParallelCrossCheck, same CI
// -run pattern) to the HTTP-sharded path: for the full registry, the
// daemon's campaign output must be byte-identical to `avsec campaign`
// serial output at every worker count, and a repeated identical sweep
// must be served from the result cache while producing the same bytes
// again. This is the daemon's determinism contract, end to end: cells
// and replicates shard across worker goroutines through the two-level
// pool budget, and none of it may be observable in the result.
func TestSerialParallelCrossCheckHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry HTTP cross-check is not short")
	}
	cfg := testConfig(t)
	ts := newTestServer(t, cfg)

	// The serial baseline: the exact campaign.Spec `avsec campaign
	// -seeds 2 -jobs 1` builds, run pool-free in-process.
	ns, err := scenario.LoadNamespace(cfg.ScenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := ns.Select(nil, false)
	serial, err := campaign.Run(campaign.Spec{
		IDs:      ids,
		Seeds:    campaign.Seeds(42, 2),
		Jobs:     1,
		Recheck:  0.25,
		RunTyped: ns.Typed(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := serial.RenderSummary()

	// The sharded path at 1, 2, and GOMAXPROCS workers: every text
	// response must carry the serial bytes.
	for _, jobs := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		body := fmt.Sprintf(`{"seed_count": 2, "jobs": %d, "format": "text"}`, jobs)
		resp, data := postCampaign(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("jobs=%d: %s\n%s", jobs, resp.Status, data)
		}
		if string(data) != want {
			t.Errorf("jobs=%d: HTTP-sharded output diverged from serial CLI output\nfirst difference: %s",
				jobs, firstDiff(want, string(data)))
		}
	}

	// The NDJSON stream is likewise jobs-invariant...
	_, stream2 := postCampaign(t, ts, `{"seed_count": 2, "jobs": 2}`)
	_, streamN := postCampaign(t, ts, fmt.Sprintf(`{"seed_count": 2, "jobs": %d}`, runtime.GOMAXPROCS(0)))
	if !bytes.Equal(stream2, streamN) {
		t.Error("NDJSON stream bytes differ between worker counts")
	}

	// ...and by now every cell is cached: the repeat sweep must hit the
	// cache for all 56 cells and still produce identical bytes.
	var before struct {
		Stats struct{ Hits, Misses, Stores uint64 } `json:"stats"`
	}
	getJSON(t, ts.URL+"/api/v1/cache", &before)
	_, repeat := postCampaign(t, ts, `{"seed_count": 2, "jobs": 2}`)
	if !bytes.Equal(stream2, repeat) {
		t.Error("cache-served sweep bytes differ from computed sweep bytes")
	}
	var after struct {
		Stats struct{ Hits, Misses, Stores uint64 } `json:"stats"`
	}
	getJSON(t, ts.URL+"/api/v1/cache", &after)
	cells := uint64(len(ids) * 2)
	if after.Stats.Hits < before.Stats.Hits+cells {
		t.Errorf("repeat sweep recomputed instead of hitting the cache: hits %d -> %d (want >= +%d)",
			before.Stats.Hits, after.Stats.Hits, cells)
	}
	if after.Stats.Stores != before.Stats.Stores {
		t.Errorf("repeat sweep stored new entries: %d -> %d", before.Stats.Stores, after.Stats.Stores)
	}
}

// firstDiff locates the first diverging byte for a readable failure.
func firstDiff(a, b string) string {
	off := 0
	for off < len(a) && off < len(b) && a[off] == b[off] {
		off++
	}
	end := func(s string) string {
		e := off + 32
		if e > len(s) {
			e = len(s)
		}
		return s[off:e]
	}
	return fmt.Sprintf("byte %d: %q vs %q", off, end(a), end(b))
}
