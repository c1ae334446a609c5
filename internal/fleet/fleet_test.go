package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/config"
	"autosec/internal/fleet"
	"autosec/internal/resultcache"
	"autosec/internal/scenario"
	"autosec/internal/server"
	"autosec/internal/sim"
)

// The test grid mixes registry and scenario experiments: cheap cells,
// both namespaces, small enough to run many schedules under -race.
var testIDs = []string{"fig3", "exp-ids", "scn-alpha"}

// workerConfig builds a daemon config with the scn-alpha corpus and
// the given cache directory ("" = a private temp dir).
func workerConfig(t testing.TB, cacheDir string) config.Config {
	t.Helper()
	dir := t.TempDir()
	scnDir := filepath.Join(dir, "scenarios")
	sp := scenario.DefaultSpec("alpha")
	folder := filepath.Join(scnDir, "alpha")
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, scenario.SpecFile), sp.MarshalINI(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.ScenarioDir = scnDir
	if cacheDir == "" {
		cacheDir = filepath.Join(dir, "cache")
	}
	cfg.Cache.Dir = cacheDir
	return cfg
}

// newWorker starts one in-process avsecd worker, optionally wrapped in
// a fault-injection middleware.
func newWorker(t *testing.T, cfg config.Config, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(s.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// serialBaseline is the ground truth: the exact spec `avsec campaign`
// runs over the workers' namespace, serial and pool-free, in this
// process.
func serialBaseline(t *testing.T, ids []string, seeds []int64, recheck float64) *campaign.Result {
	t.Helper()
	ns, err := scenario.LoadNamespace(workerConfig(t, "").ScenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(campaign.Spec{
		IDs:      ids,
		Seeds:    seeds,
		Jobs:     1,
		Recheck:  recheck,
		RunTyped: ns.Typed(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cellOrder renders the OnCell observation sequence for order checks.
func cellOrder(cells []campaign.CellResult) []string {
	var out []string
	for _, c := range cells {
		out = append(out, fmt.Sprintf("%s/%d", c.ID, c.Seed))
	}
	return out
}

func cacheStats(t *testing.T, ts *httptest.Server) resultcache.Stats {
	t.Helper()
	// Straight through the handler, so it also reads a closed worker.
	rec := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/cache", nil))
	var doc struct {
		Stats resultcache.Stats `json:"stats"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Stats
}

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

// TestSerialParallelCrossCheckFleet extends the serial/parallel
// cross-check (internal/core, internal/server; same CI -run pattern)
// to the fleet tier: the coordinator's merged output must be
// byte-identical to the serial CLI campaign at every worker count and
// chunk size, its OnCell stream must observe grid order, and the
// determinism self-check must survive distribution (the rendered
// header counts the same rechecked cells).
func TestSerialParallelCrossCheckFleet(t *testing.T) {
	seeds := campaign.Seeds(42, 3)
	serial := serialBaseline(t, testIDs, seeds, 0.25)
	want := serial.RenderSummary()
	wantOrder := cellOrder(serial.Cells)

	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, n := range workerCounts {
		for _, chunkSize := range []int{1, 3} {
			t.Run(fmt.Sprintf("workers=%d/chunk=%d", n, chunkSize), func(t *testing.T) {
				var urls []string
				for i := 0; i < n; i++ {
					urls = append(urls, newWorker(t, workerConfig(t, ""), nil).URL)
				}
				var streamed []campaign.CellResult
				rep, err := fleet.Run(context.Background(), fleet.Config{
					Workers:   urls,
					IDs:       testIDs,
					Seeds:     seeds,
					ChunkSize: chunkSize,
					Recheck:   0.25,
					OnCell:    func(c campaign.CellResult) { streamed = append(streamed, c) },
				})
				if err != nil {
					t.Fatal(err)
				}
				got := rep.Result.RenderSummary()
				if got != want {
					t.Errorf("fleet output diverged from serial CLI output\nfirst difference: %s", firstDiff(want, got))
				}
				if o := cellOrder(streamed); !equalStrings(o, wantOrder) {
					t.Errorf("OnCell order %v, want grid order %v", o, wantOrder)
				}
				if rep.Stats.Rechecks != serial.Rechecked() {
					t.Errorf("fleet rechecked %d cells, serial rechecked %d", rep.Stats.Rechecks, serial.Rechecked())
				}
			})
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHandshakeRefusesMixedVersions pins the fleet's version
// invariant: two workers reporting different code_version values are
// refused before any work is dispatched, because shared cache keys and
// the determinism contract are only sound across identical binaries.
func TestHandshakeRefusesMixedVersions(t *testing.T) {
	t.Parallel()
	stub := func(version string) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"status": "ok", "code_version": %q, "jobs": 1, "gomaxprocs": 1}`, version)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	_, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{stub("aaa").URL, stub("bbb").URL},
		IDs:     []string{"fig3"},
		Seeds:   []int64{42},
	})
	if err == nil || !strings.Contains(err.Error(), "mixed code versions") {
		t.Fatalf("mixed-version fleet not refused: %v", err)
	}

	_, err = fleet.Run(context.Background(), fleet.Config{
		Workers: []string{stub("").URL},
		IDs:     []string{"fig3"},
		Seeds:   []int64{42},
	})
	if err == nil || !strings.Contains(err.Error(), "code_version") {
		t.Fatalf("versionless worker not refused: %v", err)
	}
}

// TestFleetCrossWorkerCacheReuse pins the shared-cache story: a second
// worker pointed at the cache directory a first worker populated
// serves the whole campaign from cache (every cell a hit, zero
// stores) and still produces the serial CLI's exact bytes.
func TestFleetCrossWorkerCacheReuse(t *testing.T) {
	seeds := campaign.Seeds(42, 3)
	want := serialBaseline(t, testIDs, seeds, 0).RenderSummary()
	sharedCache := filepath.Join(t.TempDir(), "cache")

	first := newWorker(t, workerConfig(t, sharedCache), nil)
	rep, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{first.URL}, IDs: testIDs, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Result.RenderSummary(); got != want {
		t.Errorf("first fleet run diverged from serial output\nfirst difference: %s", firstDiff(want, got))
	}
	cells := uint64(len(testIDs) * len(seeds))
	if st := cacheStats(t, first); st.Stores < cells {
		t.Fatalf("first worker stored %d entries, want >= %d", st.Stores, cells)
	}

	// A different worker instance, same cache directory: pure replay.
	second := newWorker(t, workerConfig(t, sharedCache), nil)
	rep, err = fleet.Run(context.Background(), fleet.Config{
		Workers: []string{second.URL}, IDs: testIDs, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Result.RenderSummary(); got != want {
		t.Errorf("cache-replayed fleet run diverged from serial output\nfirst difference: %s", firstDiff(want, got))
	}
	st := cacheStats(t, second)
	if st.Hits < cells {
		t.Errorf("replay worker hit the cache %d times, want >= %d (cross-worker reuse)", st.Hits, cells)
	}
	if st.Stores != 0 {
		t.Errorf("replay worker stored %d new entries, want 0", st.Stores)
	}
}

// Fault-injection middlewares. Each wraps a healthy worker and injects
// one failure mode into its campaign endpoint.

// killStreamAfter aborts the connection of the first n campaign
// requests after `lines` complete stream lines: the
// killed-mid-stream worker.
func killStreamAfter(lines int, n int32) func(http.Handler) http.Handler {
	var used atomic.Int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) && used.Add(1) <= n {
				next.ServeHTTP(&killWriter{ResponseWriter: w, quota: lines}, r)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

type killWriter struct {
	http.ResponseWriter
	quota int
}

func (kw *killWriter) Write(p []byte) (int, error) {
	if kw.quota -= bytes.Count(p, []byte("\n")); kw.quota < 0 {
		panic(http.ErrAbortHandler)
	}
	return kw.ResponseWriter.Write(p)
}

func (kw *killWriter) Flush() {
	if f, ok := kw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// hangFirstCampaign never answers the first campaign request: the
// worker that hangs past every deadline.
func hangFirstCampaign() func(http.Handler) http.Handler {
	var used atomic.Bool
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) && used.CompareAndSwap(false, true) {
				// Drain the body so the server's background read is
				// armed: that is what turns the coordinator's client-side
				// disconnect into a context cancellation here.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// failCampaigns returns HTTP 500 for the first n campaign requests.
func failCampaigns(n int32) func(http.Handler) http.Handler {
	var used atomic.Int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) && used.Add(1) <= n {
				http.Error(w, "injected fault", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// abortAllCampaigns kills every campaign connection: the worker that
// dies right after a clean handshake. It closes retired when it aborts
// its third campaign, the failure that makes the coordinator retire it
// (fleet's workerFailLimit).
func abortAllCampaigns(retired chan<- struct{}) func(http.Handler) http.Handler {
	var aborted atomic.Int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) {
				if aborted.Add(1) == 3 {
					close(retired)
				}
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// holdCampaigns holds every campaign request until ready is closed or
// bound has passed, so a healthy worker cannot finish the grid before
// a faulty one has failed often enough to be retired.
func holdCampaigns(ready <-chan struct{}, bound time.Duration) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) {
				select {
				case <-ready:
				case <-time.After(bound):
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// rewriteSecondDelivery passes the cell event of (id, seed) through
// edit the second time the worker streams it. With one worker and one
// in-flight slot, that is the coordinator's recheck delivery.
func rewriteSecondDelivery(id string, seed int64, edit func(ev map[string]json.RawMessage)) func(http.Handler) http.Handler {
	var seen atomic.Int32
	rewrite := func(line []byte) []byte {
		var ev struct {
			Type string `json:"type"`
			ID   string `json:"id"`
			Seed int64  `json:"seed"`
		}
		if json.Unmarshal(line, &ev) != nil || ev.Type != "cell" || ev.ID != id || ev.Seed != seed || seen.Add(1) != 2 {
			return line
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(line, &raw); err != nil {
			panic(err)
		}
		edit(raw)
		out, err := json.Marshal(raw)
		if err != nil {
			panic(err)
		}
		return append(out, '\n')
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) {
				w = &rewriteWriter{ResponseWriter: w, rewrite: rewrite}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// rewriteWriter rewrites each write; the daemon encodes one whole
// stream event per write.
type rewriteWriter struct {
	http.ResponseWriter
	rewrite func([]byte) []byte
}

func (rw *rewriteWriter) Write(p []byte) (int, error) {
	if _, err := rw.ResponseWriter.Write(rw.rewrite(p)); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (rw *rewriteWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func isCampaign(r *http.Request) bool {
	return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/campaign")
}

// TestFleetRecheckDivergence pins the coordinator's determinism
// comparison: a recheck delivery that disagrees with the primary must
// surface as a divergence (report or typed metrics) or as a recheck
// error, and OnCell must still observe grid order.
func TestFleetRecheckDivergence(t *testing.T) {
	ids := []string{"fig3", "exp-ids"}
	seeds := campaign.Seeds(42, 2)
	wantOrder := cellOrder(serialBaseline(t, ids, seeds, 1).Cells)
	const target = 3 // exp-ids at seed 43, in grid order
	setString := func(key, v string) func(map[string]json.RawMessage) {
		return func(ev map[string]json.RawMessage) { ev[key], _ = json.Marshal(v) }
	}
	cases := []struct {
		name  string
		edit  func(map[string]json.RawMessage)
		check func(t *testing.T, res *campaign.Result, err error)
	}{
		{name: "report", edit: setString("report", "tampered report"),
			check: func(t *testing.T, res *campaign.Result, err error) {
				var div *campaign.DivergenceError
				if !errors.As(err, &div) || div.ID != "exp-ids" || div.Seed != 43 {
					t.Errorf("error %v does not carry the exp-ids seed 43 DivergenceError", err)
				}
				if n := res.Divergences(); n != 1 {
					t.Errorf("Divergences() = %d, want 1", n)
				}
				if c := res.Cells[target]; !c.Diverged || c.RecheckReport != "tampered report" {
					t.Errorf("target cell Diverged=%v RecheckReport=%q", c.Diverged, c.RecheckReport)
				}
			}},
		{name: "metric", edit: func(ev map[string]json.RawMessage) {
			var ms []sim.Metric
			if err := json.Unmarshal(ev["metrics"], &ms); err != nil || len(ms) == 0 {
				panic(fmt.Sprintf("target cell has no metrics to tamper with: %v", err))
			}
			ms[0].Value++
			ev["metrics"], _ = json.Marshal(ms)
		}, check: func(t *testing.T, res *campaign.Result, err error) {
			if err == nil || !strings.Contains(err.Error(), "diverging typed metrics") {
				t.Errorf("error %v does not report diverging typed metrics", err)
			}
			if c := res.Cells[target]; !c.MetricsDiverged || c.Diverged {
				t.Errorf("target cell MetricsDiverged=%v Diverged=%v, want true/false", c.MetricsDiverged, c.Diverged)
			}
		}},
		{name: "error", edit: setString("error", "injected recheck failure"),
			check: func(t *testing.T, res *campaign.Result, err error) {
				if err == nil {
					t.Error("recheck error event did not fail the run")
				}
				if c := res.Cells[target]; c.Err == nil || !strings.HasPrefix(c.Err.Error(), "determinism recheck:") {
					t.Errorf("target cell error %v, want a determinism recheck error", c.Err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			worker := newWorker(t, workerConfig(t, ""), rewriteSecondDelivery("exp-ids", 43, tc.edit))
			var streamed []campaign.CellResult
			rep, err := fleet.Run(context.Background(), fleet.Config{
				Workers:   []string{worker.URL},
				IDs:       ids,
				Seeds:     seeds,
				ChunkSize: 2,
				InFlight:  1,
				Recheck:   1,
				OnCell:    func(c campaign.CellResult) { streamed = append(streamed, c) },
			})
			if rep == nil {
				t.Fatalf("no report: %v", err)
			}
			tc.check(t, rep.Result, err)
			for i, c := range rep.Result.Cells {
				if i != target && (c.Err != nil || c.Diverged || c.MetricsDiverged) {
					t.Errorf("untouched cell %s/%d settled with err=%v diverged=%v/%v", c.ID, c.Seed, c.Err, c.Diverged, c.MetricsDiverged)
				}
			}
			if o := cellOrder(streamed); !equalStrings(o, wantOrder) {
				t.Errorf("OnCell order %v, want grid order %v", o, wantOrder)
			}
		})
	}
}

// TestFleetFaultInjection drives one faulty worker next to one healthy
// worker through every injected failure mode and requires the exact
// serial bytes every time: re-dispatch, straggler re-issue, and
// dedup must make worker failure invisible in the merged output.
func TestFleetFaultInjection(t *testing.T) {
	seeds := campaign.Seeds(42, 4)
	want := serialBaseline(t, testIDs, seeds, 0.25).RenderSummary()
	wantOrder := func() []string {
		return cellOrder(serialBaseline(t, testIDs, seeds, 0.25).Cells)
	}()

	retired := make(chan struct{})
	cases := []struct {
		name     string
		fault    func(http.Handler) http.Handler
		hold     func(http.Handler) http.Handler // wraps the healthy worker
		timeout  time.Duration
		wantDead bool
	}{
		// Stream cut after the campaign header + one cell: the delivered
		// prefix is kept, the remainder re-dispatches.
		{name: "killed-mid-stream", fault: killStreamAfter(2, 1)},
		// First request hangs forever: the client-side chunk deadline
		// (forwarded as deadline_ms) re-queues its cells.
		{name: "hang-past-deadline", fault: hangFirstCampaign(), timeout: 2 * time.Second},
		// Two straight 500s: plain retry, worker survives.
		{name: "http-500", fault: failCampaigns(2)},
		// Every campaign connection dies after a clean handshake: the
		// worker is retired and the healthy worker absorbs the grid.
		// The healthy worker waits for the third abort, so the grid
		// cannot finish before the retirement under any scheduling.
		{name: "dead-after-handshake", fault: abortAllCampaigns(retired),
			hold: holdCampaigns(retired, 10*time.Second), wantDead: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faulty := newWorker(t, workerConfig(t, ""), tc.fault)
			healthy := newWorker(t, workerConfig(t, ""), tc.hold)
			var streamed []campaign.CellResult
			rep, err := fleet.Run(context.Background(), fleet.Config{
				Workers:      []string{faulty.URL, healthy.URL},
				IDs:          testIDs,
				Seeds:        seeds,
				ChunkSize:    2,
				Recheck:      0.25,
				ChunkTimeout: tc.timeout,
				OnCell:       func(c campaign.CellResult) { streamed = append(streamed, c) },
			})
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Result.RenderSummary()
			if got != want {
				t.Errorf("merged output diverged from serial under fault\nfirst difference: %s", firstDiff(want, got))
			}
			if o := cellOrder(streamed); !equalStrings(o, wantOrder) {
				t.Errorf("OnCell order %v, want grid order %v", o, wantOrder)
			}
			if tc.wantDead {
				if !rep.Workers[0].Dead {
					t.Errorf("faulty worker not retired: %+v", rep.Workers[0])
				}
			}
		})
	}
}

// TestFleetStreamLineTooLong pins the stream scanner's 16 MiB line
// ceiling: a worker that answers its first chunk with one longer line
// fails that dispatch with bufio.ErrTooLong, the chunk is re-dispatched,
// and the merged report still holds the full grid in grid order.
func TestFleetStreamLineTooLong(t *testing.T) {
	t.Parallel()
	seeds := campaign.Seeds(42, 2)
	want := serialBaseline(t, []string{"fig3"}, seeds, 0)
	var used atomic.Bool
	worker := newWorker(t, workerConfig(t, ""), func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) && used.CompareAndSwap(false, true) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Write(append(bytes.Repeat([]byte("x"), 16<<20+1), '\n'))
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	var mu sync.Mutex
	var logs []string
	rep, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{worker.URL}, IDs: []string{"fig3"}, Seeds: seeds, InFlight: 1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Result.RenderSummary(), want.RenderSummary(); got != want {
		t.Errorf("merged output diverged from serial after an overlong line\nfirst difference: %s", firstDiff(want, got))
	}
	if got, want := cellOrder(rep.Result.Cells), cellOrder(want.Cells); !equalStrings(got, want) {
		t.Errorf("report grid %v, want %v", got, want)
	}
	if w := rep.Workers[0]; w.Fails != 1 || w.Dead {
		t.Errorf("worker status %+v, want one failure and alive", w)
	}
	if rep.Stats.Redispatches < 1 {
		t.Errorf("overlong chunk not re-dispatched: %+v", rep.Stats)
	}
	tooLong := false
	for _, l := range logs {
		tooLong = tooLong || strings.Contains(l, bufio.ErrTooLong.Error())
	}
	if !tooLong {
		t.Errorf("no dispatch failed with %q; logs:\n%s", bufio.ErrTooLong, strings.Join(logs, "\n"))
	}
}

// TestFleetCorruptCacheEntry injects on-disk corruption into one
// worker's populated cache: the damaged entry must degrade to
// recomputation (corrupt counter, not wrong bytes), and the merged
// output must stay byte-identical.
func TestFleetCorruptCacheEntry(t *testing.T) {
	seeds := campaign.Seeds(42, 3)
	want := serialBaseline(t, testIDs, seeds, 0).RenderSummary()
	cacheDir := filepath.Join(t.TempDir(), "cache")
	worker := newWorker(t, workerConfig(t, cacheDir), nil)

	// Populate the cache, then flip bytes in the middle of one record.
	run := func() string {
		rep, err := fleet.Run(context.Background(), fleet.Config{
			Workers: []string{worker.URL}, IDs: testIDs, Seeds: seeds,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Result.RenderSummary()
	}
	if got := run(); got != want {
		t.Fatalf("pre-corruption run diverged\nfirst difference: %s", firstDiff(want, got))
	}
	// The daemon's key for fig3 at seed 42 (server.cellCacheKey; a
	// registry experiment has no scenario fingerprint).
	key := resultcache.Key("avsecd-cell", "1", "fig3", "42", "")
	cache, err := resultcache.New(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	path, off, end, ok := cache.RecordSpan(key)
	if !ok {
		t.Fatal("no cache record for fig3 at seed 42 to corrupt")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mid := make([]byte, 8)
	at := off + (end-off)/2
	if _, err := f.ReadAt(mid, at); err != nil {
		t.Fatal(err)
	}
	for i := range mid {
		mid[i] ^= 0xFF
	}
	if _, err := f.WriteAt(mid, at); err != nil {
		t.Fatal(err)
	}

	before := cacheStats(t, worker)
	if got := run(); got != want {
		t.Errorf("post-corruption run diverged\nfirst difference: %s", firstDiff(want, got))
	}
	after := cacheStats(t, worker)
	if after.Corrupt != before.Corrupt+1 {
		t.Errorf("corrupt counter %d -> %d, want exactly one detection", before.Corrupt, after.Corrupt)
	}
	if after.Stores != before.Stores+1 {
		t.Errorf("stores %d -> %d, want exactly one healing recompute", before.Stores, after.Stores)
	}
}

// TestFleetNoCacheStoreAfterRun pins that no cache write outlives
// fleet.Run: once every cell is delivered, the straggler-steal and
// recheck copies still in flight are canceled and store nothing. Copies
// racing on one worker also compute each cell once, so the cold run
// stores exactly one entry per cell.
func TestFleetNoCacheStoreAfterRun(t *testing.T) {
	seeds := campaign.Seeds(42, 3)
	want := serialBaseline(t, testIDs, seeds, 0.5).RenderSummary()
	worker := newWorker(t, workerConfig(t, ""), nil)
	rep, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{worker.URL}, IDs: testIDs, Seeds: seeds,
		Recheck: 0.5, InFlight: 4, ChunkSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Result.RenderSummary(); got != want {
		t.Fatalf("merged output diverged from serial\nfirst difference: %s", firstDiff(want, got))
	}
	atReturn := cacheStats(t, worker)
	worker.Close() // blocks until every handler, straggler copies included, has returned
	if drained := cacheStats(t, worker); drained.Stores != atReturn.Stores {
		t.Errorf("stores %d when Run returned, %d once the worker drained: a copy wrote the cache after Run", atReturn.Stores, drained.Stores)
	}
	if cells := uint64(len(testIDs) * len(seeds)); atReturn.Stores != cells {
		t.Errorf("stores %d, want one per cell (%d)", atReturn.Stores, cells)
	}
}

// TestFleetAllWorkersDead pins the abort path: when every worker dies,
// Run returns the full grid with per-cell errors instead of hanging.
func TestFleetAllWorkersDead(t *testing.T) {
	t.Parallel()
	worker := newWorker(t, workerConfig(t, ""), abortAllCampaigns(make(chan struct{})))
	seeds := campaign.Seeds(42, 2)
	rep, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{worker.URL}, IDs: []string{"fig3"}, Seeds: seeds,
	})
	if err == nil {
		t.Fatal("all-dead fleet reported success")
	}
	if rep == nil || len(rep.Result.Cells) != len(seeds) {
		t.Fatalf("all-dead fleet did not return the full grid: %+v", rep)
	}
	for _, c := range rep.Result.Cells {
		if c.Err == nil {
			t.Errorf("cell %s/%d has no error after total fleet failure", c.ID, c.Seed)
		}
	}
	if !rep.Workers[0].Dead {
		t.Errorf("failed worker not marked dead: %+v", rep.Workers[0])
	}
}

// TestFleetRejectedChunkFailsFast pins that a worker's HTTP 400 is a
// final answer: the rejected chunk's cells fail at once with the
// worker's message, nothing is re-dispatched, the worker stays in the
// fleet, and the valid cells beside it are unaffected.
func TestFleetRejectedChunkFailsFast(t *testing.T) {
	t.Parallel()
	seeds := campaign.Seeds(42, 2)
	want := serialBaseline(t, []string{"fig3"}, seeds, 0)
	worker := newWorker(t, workerConfig(t, ""), nil)
	// One slot: no idle slot re-issues the fig3 chunk as a straggler,
	// so every re-dispatch would be a retry of the rejected chunk.
	rep, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{worker.URL}, IDs: []string{"fig3", "fig88"}, Seeds: seeds, InFlight: 1,
	})
	if err == nil {
		t.Fatal("unknown id reported success")
	}
	if rep == nil || len(rep.Result.Cells) != 2*len(seeds) {
		t.Fatalf("rejected chunk did not return the full grid: %+v", rep)
	}
	for i, w := range want.Cells {
		c := rep.Result.Cells[i]
		if c.Err != nil || c.Report != w.Report || !sim.MetricsEqual(c.Metrics, w.Metrics) {
			t.Errorf("valid cell %s/%d differs from serial (err %v)", c.ID, c.Seed, c.Err)
		}
	}
	for _, c := range rep.Result.Cells[len(want.Cells):] {
		if c.Err == nil || !strings.Contains(c.Err.Error(), `"fig88"`) || !strings.Contains(c.Err.Error(), "did you mean fig8") {
			t.Errorf("cell %s/%d error %v, want the worker's unknown-id message suggesting fig8", c.ID, c.Seed, c.Err)
		}
	}
	if w := rep.Workers[0]; w.Dead || w.Fails != 0 {
		t.Errorf("a rejection counted against the worker: %+v", w)
	}
	if rep.Stats.Redispatches != 0 {
		t.Errorf("rejected chunk re-dispatched %d times", rep.Stats.Redispatches)
	}
}

// TestFleetContextCancel pins coordinator-side cancellation: a
// canceled context fails the run with the cancellation cause instead
// of dispatching work.
func TestFleetContextCancel(t *testing.T) {
	t.Parallel()
	worker := newWorker(t, workerConfig(t, ""), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fleet.Run(ctx, fleet.Config{
		Workers: []string{worker.URL}, IDs: []string{"fig3"}, Seeds: campaign.Seeds(42, 2),
	})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled fleet did not report cancellation: %v", err)
	}
}

// TestFleetCancelFailsPendingRechecks pins that a run canceled after
// its primaries land still fails every cell whose recheck never
// arrived, with the text campaign.Run gives a skipped recheck: the
// grid, not the scheduler, says what a cell still owes and how it
// fails. OnCell fires only once a
// cell's recheck has landed, so the cell that cancels is the one cell
// that may settle cleanly.
func TestFleetCancelFailsPendingRechecks(t *testing.T) {
	t.Parallel()
	worker := newWorker(t, workerConfig(t, ""), nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := fleet.Run(ctx, fleet.Config{
		Workers: []string{worker.URL}, IDs: testIDs, Seeds: campaign.Seeds(42, 3),
		Recheck: 1, InFlight: 1, ChunkSize: 1,
		OnCell: func(campaign.CellResult) { cancel() },
	})
	if err == nil {
		t.Fatal("a fleet canceled before its rechecks landed reported success")
	}
	if rep == nil || len(rep.Result.Cells) != len(testIDs)*3 {
		t.Fatalf("canceled fleet did not return the full grid: %+v", rep)
	}
	clean := 0
	for _, c := range rep.Result.Cells {
		switch {
		case c.Err == nil:
			clean++
		case c.Err.Error() != "skipped: context canceled":
			// campaign.Run's cancel gives the same text.
			t.Errorf("%s seed %d: err %q, want skipped: context canceled", c.ID, c.Seed, c.Err)
		}
	}
	if clean > 1 {
		t.Errorf("%d cells settled without error, want at most the one whose recheck landed before the cancel", clean)
	}
}
