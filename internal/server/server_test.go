package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"autosec/internal/campaign"
	"autosec/internal/config"
	"autosec/internal/core"
	"autosec/internal/scenario"
	"autosec/internal/sim"
)

// testConfig returns a config rooted in a temp dir: a corpus with two
// known scenarios and a fresh cache.
func testConfig(t *testing.T) config.Config {
	t.Helper()
	dir := t.TempDir()
	scnDir := filepath.Join(dir, "scenarios")
	for _, name := range []string{"alpha", "beta"} {
		sp := scenario.DefaultSpec(name)
		if name == "beta" {
			sp.Attacker.Type = "replay"
		}
		folder := filepath.Join(scnDir, name)
		if err := os.MkdirAll(folder, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(folder, scenario.SpecFile), sp.MarshalINI(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := config.Default()
	cfg.ScenarioDir = scnDir
	cfg.Cache.Dir = filepath.Join(dir, "cache")
	return cfg
}

func newTestServer(t *testing.T, cfg config.Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func postCampaign(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/campaign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthAndListings(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, testConfig(t))

	var health struct {
		Status      string `json:"status"`
		CodeVersion string `json:"code_version"`
		Experiments int    `json:"experiments"`
		Scenarios   int    `json:"scenarios"`
		Jobs        int    `json:"jobs"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
	}
	getJSON(t, ts.URL+"/api/v1/health", &health)
	if health.Status != "ok" || health.Experiments != len(core.Experiments()) || health.Scenarios != 2 {
		t.Errorf("health = %+v", health)
	}
	if len(health.CodeVersion) != 64 {
		t.Errorf("code_version = %q, want a sha256 digest", health.CodeVersion)
	}
	// Capacity advertisement: jobs is the resolved default pool size
	// (config jobs 0 resolves to GOMAXPROCS, never reported as 0).
	if health.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d", health.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if health.Jobs != runtime.GOMAXPROCS(0) {
		t.Errorf("jobs = %d, want resolved default %d", health.Jobs, runtime.GOMAXPROCS(0))
	}

	var exps []struct{ ID, Source, Title string }
	getJSON(t, ts.URL+"/api/v1/experiments", &exps)
	if len(exps) != len(core.Experiments()) || exps[0].ID != "fig1" {
		t.Errorf("experiments listing: %d entries, first %+v", len(exps), exps[0])
	}

	var scns []struct{ ID, Attack string }
	getJSON(t, ts.URL+"/api/v1/scenarios", &scns)
	if len(scns) != 2 || scns[0].ID != "scn-alpha" || scns[1].Attack != "replay" {
		t.Errorf("scenario listing: %+v", scns)
	}
}

func TestCampaignRequestValidation(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, testConfig(t))
	cases := []struct {
		name, body, wantSub string
	}{
		{"malformed", `{`, "campaign request"},
		{"unknown field", `{"idz": ["fig1"]}`, "idz"},
		{"unknown id with suggestion", `{"ids": ["fig99"]}`, "did you mean"},
		{"unknown scenario id", `{"ids": ["scn-alhpa"]}`, "scn-alpha"},
		{"seed conflict", `{"seeds": [1], "seed_count": 2}`, "mutually exclusive"},
		{"zero seed count", `{"seed_count": 0}`, "seed_count"},
		{"negative jobs", `{"jobs": -1}`, "jobs"},
		{"bad recheck", `{"recheck": 1.5}`, "recheck"},
		{"bad format", `{"format": "xml"}`, "format"},
		{"negative deadline", `{"deadline_ms": -5}`, "deadline_ms"},
		{"trailing junk", `{} {}`, "trailing"},
		{"trailing bracket", `{}]`, "trailing"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			resp, data := postCampaign(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %s, want 400\n%s", resp.Status, data)
			}
			if !strings.Contains(string(data), tc.wantSub) {
				t.Errorf("error %s does not mention %q", data, tc.wantSub)
			}
		})
	}
}

// decodeStream splits an NDJSON body into its typed events.
func decodeStream(t *testing.T, data []byte) (types []string, cells []struct {
	ID      string       `json:"id"`
	Seed    int64        `json:"seed"`
	Metrics []sim.Metric `json:"metrics"`
	Report  string       `json:"report"`
	Error   string       `json:"error"`
}) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		types = append(types, head.Type)
		if head.Type == "cell" {
			var c struct {
				ID      string       `json:"id"`
				Seed    int64        `json:"seed"`
				Metrics []sim.Metric `json:"metrics"`
				Report  string       `json:"report"`
				Error   string       `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, c)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, cells
}

// TestCampaignStreamShapeAndGridOrder pins the NDJSON stream: a
// campaign header, one cell per grid cell in grid order, each carrying
// the serial run's report and metrics, then done. The stream carries
// no summary; that is the text format's job.
func TestCampaignStreamShapeAndGridOrder(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t)
	ts := newTestServer(t, cfg)
	resp, data := postCampaign(t, ts,
		`{"ids": ["fig3", "exp-ids"], "seed_base": 42, "seed_count": 2, "jobs": 4, "include_reports": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s\n%s", resp.Status, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	types, cells := decodeStream(t, data)
	if want := []string{"campaign", "cell", "cell", "cell", "cell", "done"}; strings.Join(types, " ") != strings.Join(want, " ") {
		t.Fatalf("stream shape %v, want %v", types, want)
	}
	if bytes.Contains(data, []byte(`"type":"summary"`)) {
		t.Error("stream carries a summary event")
	}

	ns, err := scenario.LoadNamespace(cfg.ScenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := campaign.Run(campaign.Spec{
		IDs:      []string{"fig3", "exp-ids"},
		Seeds:    campaign.Seeds(42, 2),
		Jobs:     1,
		RunTyped: ns.Typed(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range serial.Cells {
		got := cells[i]
		if got.ID != want.ID || got.Seed != want.Seed {
			t.Errorf("cell %d = %s/%d, want %s/%d (grid order violated)",
				i, got.ID, got.Seed, want.ID, want.Seed)
			continue
		}
		if got.Error != "" {
			t.Errorf("cell %d: %s", i, got.Error)
		}
		if got.Report != want.Report {
			t.Errorf("cell %s/%d: report differs from the serial run", got.ID, got.Seed)
		}
		if len(got.Metrics) == 0 || !sim.MetricsEqual(got.Metrics, want.Metrics) {
			t.Errorf("cell %s/%d: metrics %v, want the serial run's %v", got.ID, got.Seed, got.Metrics, want.Metrics)
		}
	}
}

// TestCampaignTextMatchesCLISerial pins the daemon's central byte
// contract: the text-format response equals what `avsec campaign`
// prints to stdout for the same spec, computed here through the same
// campaign.Spec the CLI builds, serially and pool-free.
func TestCampaignTextMatchesCLISerial(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t)
	ts := newTestServer(t, cfg)

	ids := []string{"fig3", "exp-ids", "scn-alpha"}
	ns, err := scenario.LoadNamespace(cfg.ScenarioDir)
	if err != nil {
		t.Fatal(err)
	}
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

	for _, jobs := range []int{1, 4} {
		body := fmt.Sprintf(`{"ids": ["fig3", "exp-ids", "scn-alpha"], "seed_count": 2, "jobs": %d, "format": "text"}`, jobs)
		resp, data := postCampaign(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("jobs=%d: status %s\n%s", jobs, resp.Status, data)
		}
		if string(data) != want {
			t.Errorf("jobs=%d: text response diverged from CLI-serial bytes\n got %q\nwant %q",
				jobs, string(data), want)
		}
	}
}

// TestCampaignCacheServesIdenticalBytes pins the cache half of the
// determinism contract: a repeated identical sweep must be served from
// the result cache (observable in the stats, and in the cached flags
// of a timings-mode stream) while producing byte-identical output.
func TestCampaignCacheServesIdenticalBytes(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, testConfig(t))
	body := `{"ids": ["fig3", "scn-beta"], "seed_count": 2, "jobs": 2}`

	_, first := postCampaign(t, ts, body)
	var before struct {
		Stats struct{ Hits, Misses, Stores uint64 } `json:"stats"`
	}
	getJSON(t, ts.URL+"/api/v1/cache", &before)
	if before.Stats.Stores != 4 {
		t.Errorf("first sweep stored %d entries, want 4", before.Stats.Stores)
	}

	_, second := postCampaign(t, ts, body)
	if !bytes.Equal(first, second) {
		t.Error("repeated sweep produced different stream bytes")
	}
	var after struct {
		Stats struct{ Hits, Misses, Stores uint64 } `json:"stats"`
	}
	getJSON(t, ts.URL+"/api/v1/cache", &after)
	if after.Stats.Hits < before.Stats.Hits+4 {
		t.Errorf("repeated sweep was not served from cache: hits %d -> %d",
			before.Stats.Hits, after.Stats.Hits)
	}
	if after.Stats.Stores != before.Stats.Stores {
		t.Errorf("repeated sweep re-stored entries: %d -> %d", before.Stats.Stores, after.Stats.Stores)
	}

	// Timings mode tells the truth about origins without changing the
	// deterministic fields: every primary execution now comes from
	// cache.
	resp, data := postCampaign(t, ts, `{"ids": ["fig3", "scn-beta"], "seed_count": 2, "jobs": 2, "timings": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timings sweep: %s", resp.Status)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	cached := 0
	for sc.Scan() {
		var ev struct {
			Type   string `json:"type"`
			Cached *bool  `json:"cached"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "cell" {
			if ev.Cached == nil || !*ev.Cached {
				t.Errorf("timings cell event not marked cached: %s", sc.Text())
			} else {
				cached++
			}
		}
	}
	if cached != 4 {
		t.Errorf("%d cached cells, want 4", cached)
	}
}

// TestCampaignCacheOptOut pins that cache=false recomputes: stores
// don't grow, hits don't grow, bytes stay identical anyway.
func TestCampaignCacheOptOut(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, testConfig(t))
	withCache := `{"ids": ["exp-ids"], "seed_count": 1, "jobs": 1}`
	without := `{"ids": ["exp-ids"], "seed_count": 1, "jobs": 1, "cache": false}`

	_, first := postCampaign(t, ts, withCache)
	var s1 struct {
		Stats struct{ Hits, Misses, Stores uint64 } `json:"stats"`
	}
	getJSON(t, ts.URL+"/api/v1/cache", &s1)

	_, second := postCampaign(t, ts, without)
	if !bytes.Equal(first, second) {
		t.Error("cache=false sweep produced different bytes")
	}
	var s2 struct {
		Stats struct{ Hits, Misses, Stores uint64 } `json:"stats"`
	}
	getJSON(t, ts.URL+"/api/v1/cache", &s2)
	if s2.Stats != s1.Stats {
		t.Errorf("cache=false sweep touched the cache: %+v -> %+v", s1.Stats, s2.Stats)
	}
}

// TestCampaignDisabledCache pins that a server with cache.disabled
// still serves identical bytes and reports the cache as off.
func TestCampaignDisabledCache(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t)
	cfg.Cache.Disabled = true
	ts := newTestServer(t, cfg)

	var doc struct {
		Enabled bool `json:"enabled"`
	}
	getJSON(t, ts.URL+"/api/v1/cache", &doc)
	if doc.Enabled {
		t.Error("cache reported enabled on a cache-disabled server")
	}
	body := `{"ids": ["fig3"], "seed_count": 1, "jobs": 1}`
	_, first := postCampaign(t, ts, body)
	_, second := postCampaign(t, ts, body)
	if !bytes.Equal(first, second) {
		t.Error("cache-disabled sweeps diverged")
	}
}

// TestCorpusSelection pins corpus=true and the empty-corpus error.
func TestCorpusSelection(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t)
	ts := newTestServer(t, cfg)
	resp, data := postCampaign(t, ts, `{"corpus": true, "seed_count": 1, "jobs": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corpus campaign: %s\n%s", resp.Status, data)
	}
	_, cells := decodeStream(t, data)
	if len(cells) != 2 || cells[0].ID != "scn-alpha" || cells[1].ID != "scn-beta" {
		t.Errorf("corpus cells: %+v", cells)
	}

	empty := config.Default()
	empty.ScenarioDir = filepath.Join(t.TempDir(), "none")
	empty.Cache.Dir = filepath.Join(t.TempDir(), "cache")
	ts2 := newTestServer(t, empty)
	resp, data = postCampaign(t, ts2, `{"corpus": true}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "no scenarios") {
		t.Errorf("empty corpus: %s\n%s", resp.Status, data)
	}
}
