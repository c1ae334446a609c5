package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/core"
	"autosec/internal/resultcache"
	"autosec/internal/sim"
)

// Fixed bounds on what one campaign request may ask for (docs/DAEMON.md
// "Limits"). Every one is checked before any work or allocation that
// it bounds: a worker pool fills all its slots up front, and a grid
// allocates every cell up front.
const (
	maxBodyBytes = 1 << 20 // campaign specs are small
	maxJobs      = 1024    // per-campaign worker-pool slots
	maxCells     = 1 << 16 // ids × seeds; the largest benchmark grid is 1792
)

// CampaignRequest is the JSON body of POST /api/v1/campaign. Every
// field is optional; the zero request runs the full registry at the
// CLI's default grid (8 consecutive seeds from 42) with the CLI's
// default recheck fraction, so `curl -d '{}'` and `avsec campaign`
// describe the same campaign. Unknown fields are rejected.
type CampaignRequest struct {
	// IDs selects experiments (registry or scn-* ids); empty means the
	// whole registry, or the whole corpus when Corpus is set.
	IDs []string `json:"ids"`
	// Corpus replaces the default registry grid with every scenario in
	// the corpus (ids may still be given explicitly alongside).
	Corpus bool `json:"corpus"`
	// Seeds lists explicit seeds. Mutually exclusive with
	// SeedBase/SeedCount.
	Seeds []int64 `json:"seeds"`
	// SeedBase and SeedCount describe the CLI's consecutive-seed
	// schedule: SeedCount seeds starting at SeedBase. Defaults 42 / 8.
	SeedBase  *int64 `json:"seed_base"`
	SeedCount *int   `json:"seed_count"`
	// Jobs bounds this campaign's worker pool, at most maxJobs: 0 means
	// the server default (the daemon's -jobs, itself 0 = GOMAXPROCS).
	// Result bytes never depend on it.
	Jobs int `json:"jobs"`
	// Recheck is the determinism self-check fraction in [0, 1];
	// nil means the CLI default 0.25.
	Recheck *float64 `json:"recheck"`
	// Cache opts this campaign out of the result cache when false;
	// nil means "use the cache if the server has one".
	Cache *bool `json:"cache"`
	// IncludeReports adds each cell's full report text to its stream
	// event (deterministic, but large).
	IncludeReports bool `json:"include_reports"`
	// Timings adds wall-clock and cache-origin fields to the stream.
	// Like the CLI's -timings flag it is opt-in because it breaks the
	// byte-identity of otherwise identical campaigns.
	Timings bool `json:"timings"`
	// DeadlineMS bounds this campaign's wall time in milliseconds; 0
	// means none. When the deadline passes (or the client disconnects),
	// cells that have not started are skipped and the stream ends with
	// an error event — the per-chunk timeout a fleet coordinator
	// (internal/fleet) uses to re-dispatch hung work elsewhere.
	DeadlineMS int `json:"deadline_ms"`
	// Format selects the response body: "ndjson" (default) streams
	// one event per line; "text" returns exactly the bytes `avsec
	// campaign` prints to stdout for the same spec.
	Format string `json:"format"`
}

// decodeCampaignRequest decodes one request object strictly: unknown
// fields, and anything but whitespace after the object, are errors.
func decodeCampaignRequest(r io.Reader) (CampaignRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req CampaignRequest
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errors.New("trailing data after the request object")
	}
	return req, nil
}

// campaignPlan is a validated, fully-defaulted request.
type campaignPlan struct {
	ids     []string
	seeds   []int64
	jobs    int
	recheck float64
	cache   *resultcache.Cache // nil = don't cache this campaign
	req     CampaignRequest
}

// planCampaign validates req against the server's namespace and fills
// defaults. All failures are reported before any work starts, so a bad
// request never occupies the pool.
func (s *Server) planCampaign(req CampaignRequest) (*campaignPlan, error) {
	p := &campaignPlan{req: req}

	switch req.Format {
	case "", "ndjson", "text":
	default:
		return nil, fmt.Errorf("format %q is not one of ndjson, text", req.Format)
	}

	// Experiment selection is `avsec campaign`'s: explicit ids win;
	// otherwise the registry, or the corpus under corpus=true.
	ids, err := s.ns.Select(req.IDs, req.Corpus)
	if err != nil {
		return nil, err
	}
	p.ids = ids

	// Seed schedule: explicit list, or the consecutive-seed form. The
	// grid is bounded before the schedule is allocated.
	base, count := int64(42), len(req.Seeds)
	if count > 0 {
		if req.SeedBase != nil || req.SeedCount != nil {
			return nil, fmt.Errorf("seeds and seed_base/seed_count are mutually exclusive")
		}
	} else {
		count = 8
		if req.SeedBase != nil {
			base = *req.SeedBase
		}
		if req.SeedCount != nil {
			count = *req.SeedCount
		}
		if count < 1 {
			return nil, fmt.Errorf("seed_count must be >= 1, got %d", count)
		}
	}
	if count > maxCells/len(ids) {
		return nil, fmt.Errorf("grid of %d ids × %d seeds exceeds %d cells", len(ids), count, maxCells)
	}
	p.seeds = req.Seeds
	if len(p.seeds) == 0 {
		p.seeds = campaign.Seeds(base, count)
	}

	if req.Jobs < 0 || req.Jobs > maxJobs {
		return nil, fmt.Errorf("jobs must be in [0, %d], got %d", maxJobs, req.Jobs)
	}
	p.jobs = req.Jobs
	if p.jobs == 0 {
		p.jobs = s.jobs
	}

	p.recheck = 0.25
	if req.Recheck != nil {
		p.recheck = *req.Recheck
	}
	if p.recheck < 0 || p.recheck > 1 {
		return nil, fmt.Errorf("recheck fraction %v outside [0, 1]", p.recheck)
	}

	if req.DeadlineMS < 0 {
		return nil, fmt.Errorf("deadline_ms must be >= 0, got %d", req.DeadlineMS)
	}

	p.cache = s.cache
	if req.Cache != nil && !*req.Cache {
		p.cache = nil
	}
	return p, nil
}

// cellKey identifies one grid cell in the per-campaign bookkeeping.
type cellKey struct {
	id   string
	seed int64
}

// typedRun adapts the experiment namespace to the campaign pool, with
// the result cache in front: a hit replays the stored report and metric
// stream (byte-identical to recomputation by the determinism contract);
// a miss computes through the shared worker pool and stores. origins records, per cell, whether its *first*
// execution came from cache — the recheck's second call must not
// overwrite it, so the opt-in timings fields tell the truth about
// where the primary result came from.
//
// Misses are computed under a per-key lock, so concurrent requests for
// one cell compute it once. ctx is the request context: once it is
// done — the client went away, the deadline passed, or a fleet
// coordinator canceled a straggler copy after another copy delivered —
// a cell still finishing is not stored, so no cache write outlives its
// request. (campaign.Run stops starting cells, rechecks included.)
func (p *campaignPlan) typedRun(ctx context.Context, s *Server, pool *sim.WorkerPool, origins *sync.Map) campaign.TypedRunFunc {
	return func(id string, seed int64) (string, []sim.Metric, error) {
		var key string
		if p.cache != nil {
			key = s.cellCacheKey(id, seed)
			defer s.cells.lock(key)()
			if e, ok := p.cache.Get(key); ok {
				origins.LoadOrStore(cellKey{id, seed}, true)
				return e.Report, e.Metrics, nil
			}
		}
		origins.LoadOrStore(cellKey{id, seed}, false)
		r, err := s.ns.Run(id, seed, core.RunOptions{Pool: pool})
		if err != nil {
			return "", nil, err
		}
		if p.cache != nil && ctx.Err() == nil {
			// A failed store only costs the next sweep a recompute.
			p.cache.Put(key, &resultcache.Entry{Report: r.Report, Metrics: r.Metrics})
		}
		return r.Report, r.Metrics, nil
	}
}

// Stream event documents. Field order is fixed by the struct layout,
// which is what makes the NDJSON stream byte-comparable across runs.
type evCampaign struct {
	Type        string   `json:"type"` // "campaign"
	Experiments []string `json:"experiments"`
	Seeds       []int64  `json:"seeds"`
	Cells       int      `json:"cells"`
	Recheck     float64  `json:"recheck"`
}

type evCell struct {
	Type    string       `json:"type"` // "cell"
	ID      string       `json:"id"`
	Seed    int64        `json:"seed"`
	Metrics []sim.Metric `json:"metrics"`
	Report  string       `json:"report,omitempty"`
	Error   string       `json:"error,omitempty"`
	// Timings-mode fields; omitted (and the stream byte-identical)
	// unless the request sets timings.
	Cached    *bool    `json:"cached,omitempty"`
	ElapsedMS *float64 `json:"elapsed_ms,omitempty"`
}

type evDone struct {
	Type        string `json:"type"` // "done"
	Cells       int    `json:"cells"`
	Rechecked   int    `json:"rechecked"`
	Divergences int    `json:"divergences"`
	// Timings-mode fields.
	CacheHits   *int     `json:"cache_hits,omitempty"`
	CacheMisses *int     `json:"cache_misses,omitempty"`
	ElapsedMS   *float64 `json:"elapsed_ms,omitempty"`
}

type evError struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// handleCampaign executes one campaign request. The NDJSON stream
// emits a campaign header, one cell event per grid cell in grid order
// (streamed as soon as the cell and its predecessors finish, however
// the pool schedules them) and a final done or error event. The text
// format skips the events and returns the aggregate summary alone,
// byte-identical to `avsec campaign` stdout for the same spec.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	req, err := decodeCampaignRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "campaign request: %v", err)
		return
	}
	plan, err := s.planCampaign(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "campaign request: %v", err)
		return
	}

	// Request-scoped cancellation: a client disconnect cancels
	// r.Context(), and an optional deadline_ms bounds the campaign's
	// wall time. Either way the per-request pool stops starting new
	// cells immediately and the handler returns as soon as in-flight
	// cells finish — no goroutine outlives its request
	// (TestCampaignClientDisconnectNoLeak).
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	pool := sim.NewWorkerPool(plan.jobs)
	var origins sync.Map
	spec := campaign.Spec{
		IDs:      plan.ids,
		Seeds:    plan.seeds,
		Context:  ctx,
		Pool:     pool,
		Recheck:  plan.recheck,
		RunTyped: plan.typedRun(ctx, s, pool, &origins),
		CostHint: s.ns.Cost,
	}

	if plan.req.Format == "text" {
		res, runErr := campaign.Run(spec)
		if runErr != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				runErr = fmt.Errorf("canceled: %w", ctxErr)
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusInternalServerError)
			if res != nil {
				fmt.Fprint(w, res.RenderSummary())
			}
			fmt.Fprintf(w, "campaign failed: %v\n", runErr)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, res.RenderSummary())
		return
	}

	// NDJSON stream. From the first event on, the status line is
	// committed; failures surface as a terminal error event.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(v any) {
		enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}

	emit(evCampaign{Type: "campaign", Experiments: plan.ids, Seeds: plan.seeds,
		Cells: len(plan.ids) * len(plan.seeds), Recheck: plan.recheck})
	start := time.Now()
	spec.OnCell = func(c campaign.CellResult) {
		ev := evCell{Type: "cell", ID: c.ID, Seed: c.Seed, Metrics: c.Metrics}
		if ev.Metrics == nil {
			ev.Metrics = []sim.Metric{}
		}
		if plan.req.IncludeReports {
			ev.Report = c.Report
		}
		if c.Err != nil {
			ev.Error = c.Err.Error()
		}
		if plan.req.Timings {
			cached := false
			if v, ok := origins.Load(cellKey{c.ID, c.Seed}); ok {
				cached = v.(bool)
			}
			ms := float64(c.Elapsed) / float64(time.Millisecond)
			ev.Cached = &cached
			ev.ElapsedMS = &ms
		}
		emit(ev)
	}
	res, runErr := campaign.Run(spec)
	if runErr != nil {
		// A canceled campaign fails one joined error per skipped cell;
		// report the cause once instead of a page of "skipped" lines.
		msg := runErr.Error()
		if ctxErr := ctx.Err(); ctxErr != nil {
			msg = fmt.Sprintf("campaign canceled: %v", ctxErr)
		}
		emit(evError{Type: "error", Error: msg})
		return
	}
	done := evDone{Type: "done", Cells: len(res.Cells),
		Rechecked: res.Rechecked(), Divergences: res.Divergences()}
	if plan.req.Timings {
		hits, misses := 0, 0
		origins.Range(func(_, v any) bool {
			if v.(bool) {
				hits++
			} else {
				misses++
			}
			return true
		})
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		done.CacheHits = &hits
		done.CacheMisses = &misses
		done.ElapsedMS = &ms
	}
	emit(done)
}
