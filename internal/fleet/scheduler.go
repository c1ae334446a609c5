package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/server"
)

// workerFailLimit retires a worker after this many consecutive
// transport-level failures; its undelivered chunks re-queue to the
// rest of the fleet.
const workerFailLimit = 3

// maxChunkCopies caps speculative duplication of one chunk: the
// primary dispatch plus at most one straggler re-issue at a time.
const maxChunkCopies = 2

// maxAttempts bounds how often a chunk is dispatched (first try
// included) before its undelivered cells fail permanently.
const maxAttempts = 3

// cellRef names one execution slot of the grid: cell gi of the merged
// grid, addressed on the wire as (id, seed).
type cellRef struct {
	id   string
	seed int64
	gi   int
}

// chunk is the dispatch unit: one experiment at a run of consecutive
// schedule positions, so it maps exactly onto one worker campaign
// request {ids: [id], seeds: [...]}.
type chunk struct {
	id       string
	cells    []cellRef
	attempts int   // dispatches started (first try included)
	active   int   // dispatches currently in flight
	queued   bool  // currently in the todo queue
	lastErr  error // last transport-level failure, for the final error
}

// splitChunks cuts refs into chunks of at most size cells.
func splitChunks(id string, refs []cellRef, size int) []*chunk {
	var out []*chunk
	for len(refs) > 0 {
		n := size
		if n > len(refs) {
			n = len(refs)
		}
		out = append(out, &chunk{id: id, cells: refs[:n:n]})
		refs = refs[n:]
	}
	return out
}

type workerState struct {
	url    string
	health server.Health
	slots  int
	chunks int // chunk executions completed without transport error
	cells  int // cell events delivered
	fails  int
	consec int // consecutive transport failures
	dead   bool
}

// sched is the shared scheduler state: a FIFO chunk queue over the
// grid, which keeps the per-cell delivery accounting. Every field is
// guarded by mu; workers block on cond when the queue is empty and
// nothing is stealable.
type sched struct {
	cfg       *Config
	grid      *campaign.Grid
	all       []*chunk
	todo      []*chunk
	workers   []*workerState
	alive     int
	stats     Stats
	cancelRun context.CancelFunc
	mu        sync.Mutex
	cond      *sync.Cond
}

func newSched(cfg *Config, grid *campaign.Grid, healths []server.Health) *sched {
	s := &sched{cfg: cfg, grid: grid}
	s.cond = sync.NewCond(&s.mu)
	for i, url := range cfg.Workers {
		slots := cfg.InFlight
		if slots <= 0 {
			// Capacity weighting: a worker advertising more jobs gets
			// more concurrent chunks, clamped so one huge worker cannot
			// hoard the whole queue against re-dispatch.
			slots = healths[i].Jobs
			if slots < 1 {
				slots = 1
			}
			if slots > 4 {
				slots = 4
			}
		}
		s.workers = append(s.workers, &workerState{url: url, health: healths[i], slots: slots})
	}
	s.alive = len(s.workers)
	return s
}

// run drives the whole dispatch: one goroutine per worker slot pulls
// chunks until every cell has all its deliveries. Returns only when
// all slot goroutines have exited.
func (s *sched) run(ctx context.Context, chunks []*chunk) {
	s.all = chunks
	for _, ch := range chunks {
		ch.queued = true
	}
	s.todo = append(s.todo, chunks...)

	// Every chunk request descends from runCtx, canceled the moment the
	// last delivery lands (or the run aborts) so in-flight requests to
	// hung workers cannot block the join below.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.mu.Lock()
	s.cancelRun = cancel
	s.mu.Unlock()

	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.abortLocked(func(gi int) { s.grid.Skip(gi, context.Cause(ctx)) })
			s.mu.Unlock()
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	for _, w := range s.workers {
		for i := 0; i < w.slots; i++ {
			wg.Add(1)
			go func(w *workerState) {
				defer wg.Done()
				for {
					ch := s.next(w)
					if ch == nil {
						return
					}
					s.execute(runCtx, w, ch)
				}
			}(w)
		}
	}
	wg.Wait()
}

// next blocks until there is a chunk for w, the run is complete, or w
// is dead. It prefers the FIFO queue (primaries in cost order, then
// rechecks, then requeued failures); when the queue is empty it enters
// the straggler tail mode and re-issues the largest outstanding
// in-flight chunk.
func (s *sched) next(w *workerState) *chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.grid.Settled() || w.dead {
			return nil
		}
		for len(s.todo) > 0 {
			ch := s.todo[0]
			s.todo = s.todo[1:]
			ch.queued = false
			if !s.undeliveredLocked(ch) {
				continue
			}
			ch.attempts++
			ch.active++
			if ch.attempts > 1 {
				s.stats.Redispatches++
			}
			return ch
		}
		if ch := s.stealLocked(); ch != nil {
			ch.attempts++
			ch.active++
			s.stats.Redispatches++
			s.stats.Steals++
			s.cfg.logf("fleet: idle worker %s re-issuing straggler chunk %s (%d cells)", w.url, ch.id, len(ch.cells))
			return ch
		}
		s.cond.Wait()
	}
}

// stealLocked picks the in-flight chunk with the most undelivered
// cells, if any chunk still has copy budget. This is what rescues a
// run from a worker that hangs without failing: an idle worker
// duplicates the straggler's chunk, and whichever copy finishes first
// delivers (re-execution is idempotent by cache key, duplicates are
// deduped, so speculation is invisible in result bytes).
func (s *sched) stealLocked() *chunk {
	var best *chunk
	bestN := 0
	for _, ch := range s.all {
		if ch.queued || ch.active == 0 || ch.active >= maxChunkCopies || ch.attempts >= maxAttempts {
			continue
		}
		n := 0
		for _, ref := range ch.cells {
			if s.grid.Owes(ref.gi) {
				n++
			}
		}
		if n > bestN {
			best, bestN = ch, n
		}
	}
	return best
}

func (s *sched) undeliveredLocked(ch *chunk) bool {
	for _, ref := range ch.cells {
		if s.grid.Owes(ref.gi) {
			return true
		}
	}
	return false
}

// failChunkLocked records a permanent failure for every cell of ch
// that is still undelivered.
func (s *sched) failChunkLocked(ch *chunk) {
	cause := ch.lastErr
	if cause == nil {
		cause = errors.New("dispatch attempts exhausted")
	}
	for _, ref := range ch.cells {
		if s.grid.Owes(ref.gi) {
			s.deliverLocked(ref.gi, server.CellEvent{
				Error: fmt.Sprintf("chunk failed after %d dispatch attempts: %v", ch.attempts, cause),
			}, nil, 0)
		}
	}
}

// abortLocked ends the run: fail settles every cell still owed a
// delivery, a cell whose recheck never arrived too, and all in-flight
// requests are canceled.
func (s *sched) abortLocked(fail func(gi int)) {
	for gi := range s.grid.Cells {
		if s.grid.Owes(gi) {
			fail(gi)
			s.grid.Complete(gi)
		}
	}
	if s.cancelRun != nil {
		s.cancelRun()
	}
	s.cond.Broadcast()
}

// deliverLocked lands one cell event at grid index gi through the
// grid's Deliver: the first delivery fills the cell, and the second
// (recheck or speculative duplicate) is the grid's determinism
// comparison, exactly like the second execution in campaign.Run. A
// delivery the cell no longer owes is counted and dropped — sound
// because the determinism contract makes every correct duplicate
// byte-identical, so first-wins cannot depend on scheduling. Completing
// a cell flushes the done prefix to OnCell in grid order.
func (s *sched) deliverLocked(gi int, ev server.CellEvent, w *workerState, elapsed time.Duration) {
	if w != nil {
		w.cells++
	}
	var err error
	if ev.Error != "" {
		err = errors.New(ev.Error)
	}
	if !s.grid.Deliver(gi, ev.Report, ev.Metrics, err, elapsed) {
		s.stats.Duplicates++
		return
	}
	if !s.grid.Owes(gi) {
		s.grid.Complete(gi)
	}
	if s.grid.Settled() && s.cancelRun != nil {
		// Unblock any request still streaming to a straggler.
		s.cancelRun()
	}
}

// execute runs one dispatch of ch on w and settles the bookkeeping:
// consecutive transport failures retire the worker, undelivered cells
// re-queue (bounded by maxAttempts), and an all-dead fleet aborts.
func (s *sched) execute(ctx context.Context, w *workerState, ch *chunk) {
	s.mu.Lock()
	// Snapshot what this dispatch still owes; a duplicated or requeued
	// chunk may find some cells already delivered by another copy.
	var cells []cellRef
	for _, ref := range ch.cells {
		if s.grid.Owes(ref.gi) {
			cells = append(cells, ref)
		}
	}
	if len(cells) == 0 {
		ch.active--
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.stats.Dispatches++
	s.mu.Unlock()

	terr := s.postChunk(ctx, w, ch, cells)

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.cond.Broadcast()
	ch.active--
	if s.grid.Settled() || ctx.Err() != nil {
		// The run completed while this request was in flight (its
		// context was canceled under it), or the caller canceled it and
		// the cancel's abort settles every cell; either way a failed
		// request here is not the worker's fault.
		return
	}
	var rejected *rejectedError
	if errors.As(terr, &rejected) {
		// Every worker would reject the same request, so the cells fail
		// now with the worker's message: no retry, and the worker, which
		// answered, keeps its place in the fleet.
		s.cfg.logf("fleet: worker %s rejected chunk %s: %s", w.url, ch.id, rejected.msg)
		for _, ref := range cells {
			if s.grid.Owes(ref.gi) {
				s.deliverLocked(ref.gi, server.CellEvent{Error: terr.Error()}, nil, 0)
			}
		}
		return
	}
	if terr != nil {
		ch.lastErr = terr
		w.fails++
		w.consec++
		s.cfg.logf("fleet: worker %s: chunk %s attempt %d failed: %v", w.url, ch.id, ch.attempts, terr)
		if w.consec >= workerFailLimit && !w.dead {
			w.dead = true
			s.alive--
			s.cfg.logf("fleet: worker %s retired after %d consecutive failures", w.url, w.consec)
		}
	} else {
		w.consec = 0
		w.chunks++
	}
	missing := false
	for _, ref := range cells {
		if s.grid.Owes(ref.gi) {
			missing = true
			break
		}
	}
	if missing {
		if terr == nil && ch.lastErr == nil {
			ch.lastErr = errors.New("worker stream ended before delivering every chunk cell")
		}
		switch {
		case ch.attempts >= maxAttempts:
			if ch.active == 0 {
				s.failChunkLocked(ch)
			}
		case !ch.queued:
			ch.queued = true
			s.todo = append(s.todo, ch)
		}
	}
	if s.alive == 0 && !s.grid.Settled() {
		err := errors.New("all fleet workers failed")
		s.abortLocked(func(gi int) { s.grid.Deliver(gi, "", nil, err, 0) })
	}
}

// decodeStreamLine decodes one NDJSON stream line into ev in a single
// pass. A line that is valid JSON but whose fields do not fit
// server.CellEvent is decided on its type alone: a cell is a bad event,
// and any other line passes with its type and, for an error event, its
// message.
func decodeStreamLine(line []byte, ev *server.CellEvent) error {
	err := json.Unmarshal(line, ev)
	if err == nil {
		return nil
	}
	var typeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) {
		return fmt.Errorf("bad stream line %.80q: %v", line, err)
	}
	// The misfit field may be the type itself, so read it on its own.
	var head struct {
		Type string `json:"type"`
	}
	if herr := json.Unmarshal(line, &head); herr != nil {
		return fmt.Errorf("bad stream line %.80q: %v", line, herr)
	}
	if head.Type == "cell" {
		return fmt.Errorf("bad cell event %.80q: %v", line, err)
	}
	ev.Type = head.Type
	return nil
}

// rejectedError is a worker's HTTP 400: the chunk request itself is
// invalid (an unknown experiment id, say), which no retry can change.
type rejectedError struct{ msg string }

func (e *rejectedError) Error() string { return "worker rejected chunk: " + e.msg }

// postChunk performs one chunk request against w and delivers its cell
// events as they stream. A *rejectedError is the worker's final answer
// for every cell of the request. Any other non-nil error is
// transport-level: the undelivered remainder of cells is eligible for
// re-dispatch. Per-cell
// experiment errors are not transport errors — they are deterministic
// results and are delivered as such — but cells the worker skipped
// because its campaign was canceled are withheld for retry.
func (s *sched) postChunk(ctx context.Context, w *workerState, ch *chunk, cells []cellRef) error {
	if s.cfg.ChunkTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ChunkTimeout)
		defer cancel()
	}
	// recheck is always 0, because the coordinator runs the self-check
	// itself and workers must not double-execute; reports are always
	// requested, because byte-level report merge is the whole point.
	var zero float64
	creq := server.CampaignRequest{
		IDs:            []string{ch.id},
		Jobs:           s.cfg.Jobs,
		Recheck:        &zero,
		Cache:          s.cfg.Cache,
		IncludeReports: true,
		DeadlineMS:     int(s.cfg.ChunkTimeout / time.Millisecond),
	}
	for _, ref := range cells {
		creq.Seeds = append(creq.Seeds, ref.seed)
	}
	payload, err := json.Marshal(creq)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(w.url, "/")+"/api/v1/campaign", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusBadRequest {
			var doc struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(b, &doc) != nil || doc.Error == "" {
				doc.Error = strings.TrimSpace(string(b))
			}
			return &rejectedError{msg: doc.Error}
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}

	// Cell events arrive in the sub-request's own grid order, so a
	// FIFO queue per seed maps each event back to its grid index (and
	// stays correct even if a seed schedule repeats a seed).
	pending := make(map[int64][]cellRef, len(cells))
	for _, ref := range cells {
		pending[ref.seed] = append(pending[ref.seed], ref)
	}
	left := len(cells)
	var workerErr string
	t0 := time.Now()
	sc := bufio.NewScanner(resp.Body)
	// Start at 4 KiB, not the scanner's 64 KiB, and grow on demand up
	// to the line ceiling: most chunks stream only short lines.
	sc.Buffer(make([]byte, 4<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var ev server.CellEvent
		if err := decodeStreamLine(line, &ev); err != nil {
			return err
		}
		switch ev.Type {
		case "cell":
			q := pending[ev.Seed]
			if ev.ID != ch.id || len(q) == 0 {
				return fmt.Errorf("unexpected cell %s seed %d in chunk %s stream", ev.ID, ev.Seed, ch.id)
			}
			ref := q[0]
			pending[ev.Seed] = q[1:]
			left--
			if strings.HasPrefix(ev.Error, "skipped:") {
				// The worker's campaign was canceled before this cell
				// started (deadline_ms, shutdown): not a result, leave
				// the cell undelivered so it is re-dispatched.
				continue
			}
			if len(ev.Metrics) == 0 {
				// The stream encodes nil metrics as []; restore nil so
				// the merged grid is indistinguishable from a local run.
				ev.Metrics = nil
			}
			s.mu.Lock()
			s.deliverLocked(ref.gi, ev, w, time.Since(t0))
			s.mu.Unlock()
		case "error":
			workerErr = ev.Error
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil && left > 0 {
		return err
	}
	if workerErr != "" && left > 0 {
		return fmt.Errorf("worker reported: %s", workerErr)
	}
	return nil
}
