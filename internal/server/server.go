// Package server implements the avsecd HTTP service: the fleet-scale,
// long-running counterpart of the one-shot `avsec` CLI. It accepts
// campaign specifications over HTTP/JSON, shards their (experiment ×
// seed) cells and intra-cell replicate loops across worker goroutines
// through the existing two-level campaign.Spec.Pool budget, streams
// results back incrementally as NDJSON, and serves repeated sweeps
// from the content-addressed result cache (internal/resultcache).
//
// The daemon inherits the repo's determinism contract wholesale: for
// the same campaign spec, the NDJSON stream and the text-format
// response (the aggregate summary) are byte-identical at every worker
// count and on every repetition — whether a cell was computed
// or served from cache is observable only through the opt-in timings
// fields and the cache statistics endpoint, never through the result
// bytes. docs/DAEMON.md is the API reference; the cross-check test in
// this package extends TestSerialParallelCrossCheck to the
// HTTP-sharded path.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"autosec/internal/config"
	"autosec/internal/ext"
	"autosec/internal/resultcache"
	"autosec/internal/scenario"
)

// Server is the avsecd HTTP service: the experiment namespace (the
// registry plus the scenario corpus, loaded once at startup) and the
// result cache.
type Server struct {
	jobs  int // default campaign pool size, resolved (never 0)
	ns    *scenario.Namespace
	cache *resultcache.Cache // nil when disabled
	cells cellLocks          // one computation per cache key at a time
}

// New builds a server from cfg: it resolves the default pool size
// (jobs 0 = GOMAXPROCS), loads and compiles the scenario corpus under
// cfg.ScenarioDir (a missing directory loads zero scenarios, like the
// CLI) and opens the result cache unless disabled.
func New(cfg config.Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Jobs > maxJobs {
		return nil, fmt.Errorf("config: jobs must be <= %d, got %d", maxJobs, cfg.Jobs)
	}
	ns, err := scenario.LoadNamespace(cfg.ScenarioDir)
	if err != nil {
		return nil, fmt.Errorf("server: scenario corpus %s: %w", cfg.ScenarioDir, err)
	}
	s := &Server{jobs: cfg.Jobs, ns: ns}
	if s.jobs == 0 {
		s.jobs = min(runtime.GOMAXPROCS(0), maxJobs)
	}
	if !cfg.Cache.Disabled {
		c, err := resultcache.New(cfg.Cache.Dir)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler. It is a plain ServeMux so
// tests drive it through net/http/httptest and cmd/avsecd mounts it on
// its listener unchanged.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/health", s.handleHealth)
	mux.HandleFunc("GET /api/v1/extensions", s.handleExtensions)
	mux.HandleFunc("GET /api/v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /api/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /api/v1/cache", s.handleCacheStats)
	mux.HandleFunc("POST /api/v1/campaign", s.handleCampaign)
	return mux
}

// writeJSON renders one indented JSON document. Every non-streaming
// response goes through it, so the API is uniformly pretty-printed and
// newline-terminated (curl-friendly).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the uniform error document of every non-2xx JSON reply.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleHealth reports liveness plus the identity and capacity facts a
// fleet coordinator needs: the code version that keys the cache (two
// workers may share cached results exactly when it matches), the
// namespace sizes, and the worker's compute capacity — the resolved
// default campaign pool size (`jobs`, never 0) and `gomaxprocs` — so
// chunk assignment can be weighted toward bigger workers
// (internal/fleet, docs/FLEET.md).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	doc := struct {
		Status      string `json:"status"`
		CodeVersion string `json:"code_version"`
		Experiments int    `json:"experiments"`
		Scenarios   int    `json:"scenarios"`
		Cache       string `json:"cache"`
		Jobs        int    `json:"jobs"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
	}{
		Status:      "ok",
		CodeVersion: resultcache.CodeVersion(),
		Experiments: len(s.ns.Registry()),
		Scenarios:   len(s.ns.Specs()),
		Cache:       "disabled",
		Jobs:        s.jobs,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if s.cache != nil {
		doc.Cache = s.cache.Dir()
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleExtensions serves the extension catalog: every registered
// extension of every kind in this binary, drop-ins included. The
// document is ext.Catalog() verbatim — the same call `avsec ext -json`
// renders — so the CLI and daemon listings cannot drift.
func (s *Server) handleExtensions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ext.Catalog())
}

// handleExperiments lists the registry in paper order.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type info struct {
		ID     string `json:"id"`
		Source string `json:"source"`
		Title  string `json:"title"`
	}
	out := []info{}
	for _, e := range s.ns.Registry() {
		out = append(out, info{ID: e.ID, Source: e.Source, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleScenarios lists the compiled corpus in name order.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type info struct {
		ID      string `json:"id"`
		Attack  string `json:"attack"`
		Title   string `json:"title"`
		Replica int    `json:"replicates"`
	}
	out := []info{}
	for _, sp := range s.ns.Specs() {
		e, _ := s.ns.Lookup(scenario.IDPrefix + sp.Name)
		out = append(out, info{ID: e.ID, Attack: sp.Attacker.Type, Title: e.Title, Replica: sp.Run.Replicates})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCacheStats reports the result-cache counters; this endpoint —
// not the campaign stream — is how callers observe whether a sweep was
// served from cache, because the stream itself must stay byte-identical
// across recomputation and replay.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	doc := struct {
		Enabled bool              `json:"enabled"`
		Dir     string            `json:"dir,omitempty"`
		Stats   resultcache.Stats `json:"stats"`
	}{}
	if s.cache != nil {
		doc.Enabled = true
		doc.Dir = s.cache.Dir()
		doc.Stats = s.cache.Stats()
	}
	writeJSON(w, http.StatusOK, doc)
}

// cellCacheKey is the content address of one (experiment, seed) cell:
// the cache scheme version, the running binary's content hash, the
// experiment id, the seed, and — for DSL scenarios — the canonical
// spec fingerprint, so an edited scenario.ini can never be served a
// stale result. Registry experiments have no spec beyond the binary,
// so their fingerprint part is empty.
func (s *Server) cellCacheKey(id string, seed int64) string {
	return resultcache.Key("avsecd-cell", "1", resultcache.CodeVersion(),
		id, strconv.FormatInt(seed, 10), s.ns.Fingerprint(id))
}

// cellLocks serializes the cache-miss path per cache key. Two requests
// reaching the same cell at once — a fleet's straggler copy beside its
// primary, or a recheck copy — would otherwise both miss and both
// compute; under the lock the second finds the first's entry and is
// served from cache, so each cell is computed and stored once per
// daemon. A holder never waits for another cell's lock, and replicate
// fan-out inside a cell only borrows idle pool slots, so holding the
// lock across the computation cannot deadlock.
type cellLocks struct {
	mu sync.Mutex
	m  map[string]*cellLock
}

type cellLock struct {
	sync.Mutex
	refs int
}

// lock acquires the lock for key and returns its release.
func (c *cellLocks) lock(key string) (unlock func()) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*cellLock)
	}
	l := c.m[key]
	if l == nil {
		l = &cellLock{}
		c.m[key] = l
	}
	l.refs++
	c.mu.Unlock()
	l.Lock()
	return func() {
		l.Unlock()
		c.mu.Lock()
		if l.refs--; l.refs == 0 {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
}
