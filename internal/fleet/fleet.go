// Package fleet implements the campaign fleet coordinator: it shards
// one (experiment × seed) campaign across N avsecd workers and merges
// the streamed results back into exact grid order, so the merged
// output is byte-identical to a single-host serial `avsec campaign`
// run at any worker count, chunk size, and completion interleaving.
//
// The coordinator extends the repo's two-level worker budget (cells ×
// replicates, DESIGN.md §7) into a three-level one: fleet → daemon →
// replicates. Each layer is pure scheduling — none of them is
// observable in result bytes:
//
//   - The grid is partitioned into chunks (one experiment, a run of
//     seeds) dispatched as POST /api/v1/campaign requests with bounded
//     in-flight chunks per worker, weighted by the capacity each
//     worker advertises in /api/v1/health.
//   - Every worker must report the same code_version during the
//     initial handshake; the coordinator refuses a mixed fleet because
//     a shared cache (which keeps each binary's entries apart) and the
//     determinism contract itself are only sound across identical
//     binaries.
//   - Cell events are merged as they stream: each cell lands at its
//     fixed grid index, duplicates are deduped deterministically
//     (byte-identical by the determinism contract, so first-wins is
//     order-independent), and the OnCell callback observes grid order
//     exactly like campaign.Spec.OnCell.
//   - Failures are handled by re-dispatch: a worker that errors,
//     disconnects mid-stream, or exceeds the per-chunk deadline has
//     its undelivered cells re-queued to the remaining workers, and a
//     straggler-aware tail mode re-issues the last outstanding chunks
//     to idle workers. Re-execution is idempotent by cache key, so a
//     duplicated completion costs a cache hit, never a wrong byte.
//   - The determinism self-check runs at the coordinator: the cells
//     campaign.Run would recheck (the shared campaign.Grid selects
//     them) are re-dispatched — usually to a different worker, where
//     they are typically served from the shared cache — and compared
//     byte-for-byte, which turns the recheck into a continuous
//     cross-worker cache-integrity check.
//
// `avsec fleet` is the CLI entry point; docs/FLEET.md documents the
// topology, chunking, retry semantics, and failure model. The
// fault-injection tests in this package pin the byte-identity contract
// across killed, hung, and cache-corrupted workers.
package fleet

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/server"
)

// Config describes one fleet campaign.
type Config struct {
	// Workers lists the avsecd base URLs (e.g. http://127.0.0.1:8787).
	// Required, at least one.
	Workers []string
	// IDs are the experiment identifiers in presentation order; Seeds
	// the seed schedule. The merged grid is IDs × Seeds in grid order,
	// exactly like campaign.Spec.
	IDs   []string
	Seeds []int64
	// ChunkSize is the number of seeds per dispatched chunk within one
	// experiment (a chunk is one experiment at a run of consecutive
	// schedule positions, so it maps exactly onto one worker campaign
	// request). <= 0 means the default of 4. Result bytes never depend
	// on it.
	ChunkSize int
	// InFlight bounds concurrent chunk requests per worker. <= 0
	// derives it from the worker's advertised capacity (its resolved
	// `jobs`, clamped to [1, 4]) — the capacity-weighted assignment:
	// bigger workers pull more chunks from the shared queue.
	InFlight int
	// Jobs is forwarded as each chunk request's `jobs` field; 0 lets
	// every worker use its own configured default.
	Jobs int
	// Recheck is the determinism self-check fraction in [0, 1],
	// evaluated at the coordinator with the exact cell selection
	// campaign.Run uses, so the merged header line stays
	// byte-identical to the serial CLI's.
	Recheck float64
	// Cache forwards the per-request cache opt-out; nil leaves every
	// worker's default in place.
	Cache *bool
	// ChunkTimeout bounds one chunk dispatch; it is enforced on the
	// client side and forwarded to the worker as deadline_ms so a hung
	// worker also stops computing. 0 means none — then a worker that
	// hangs forever can only be rescued by the straggler re-issue of
	// its chunks to other workers.
	ChunkTimeout time.Duration
	// CostHint, like campaign.Spec.CostHint, orders primary chunks
	// highest-cost-first so long experiments start early. Purely a
	// scheduling hint.
	CostHint func(id string) int
	// OnCell, when non-nil, observes every merged cell in grid order,
	// as soon as the cell (including its recheck, when selected) and
	// all its predecessors are complete. It is called with the
	// coordinator lock held: keep it fast.
	OnCell func(campaign.CellResult)
	// Logf, when non-nil, receives scheduling diagnostics (dispatches,
	// retries, steals, worker deaths). Never required for correctness.
	Logf func(format string, args ...any)
	// Client is the HTTP client used for every request; nil uses a
	// client without a global timeout (per-chunk deadlines come from
	// ChunkTimeout).
	Client *http.Client
}

// Stats counts scheduling events of one fleet run. Purely diagnostic:
// every value may differ between two runs whose merged output is
// byte-identical.
type Stats struct {
	Cells        int // grid cells
	Rechecks     int // cells double-executed by the self-check
	Chunks       int // chunks built (primary + recheck)
	Dispatches   int // chunk executions started
	Redispatches int // executions past a chunk's first (retries + steals)
	Steals       int // straggler re-issues by idle workers
	Duplicates   int // deliveries ignored because the cell was complete
}

// WorkerStatus reports one worker's share of a fleet run.
type WorkerStatus struct {
	URL    string
	Health server.Health
	Slots  int // concurrent chunk requests granted
	Chunks int // chunk executions completed without transport error
	Cells  int // cell events delivered (including duplicates)
	Fails  int // transport-level failures
	Dead   bool
}

// Report is the full outcome of a fleet run: the merged campaign
// result plus the scheduling diagnostics.
type Report struct {
	Result  *campaign.Result
	Workers []WorkerStatus
	Stats   Stats
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Run executes the fleet campaign. Like campaign.Run it always returns
// the full Report (every cell in grid order); the error joins every
// cell failure and every determinism divergence, so a non-nil error
// means the merged result must not be trusted.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no workers")
	}
	// The grid, with campaign.Run's recheck selection: this is what
	// keeps the merged RenderSummary header byte-identical to the
	// serial CLI's.
	grid, err := campaign.NewGrid(cfg.IDs, cfg.Seeds, cfg.Recheck, cfg.OnCell)
	if err != nil {
		return nil, err
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 4
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if ctx == nil {
		ctx = context.Background()
	}

	healths, err := HandshakeAll(ctx, cfg.Client, cfg.Workers)
	if err != nil {
		return nil, err
	}

	// Primary chunks cover every cell once, in grid order, reordered
	// only by the cost hint (highest first, stable — the grid
	// re-imposes grid order on all observable output). Recheck chunks
	// cover the selected cells a second time and queue after the
	// primaries, so they overlap the grid's tail and usually land on a
	// different worker than the primary did.
	var chunks, rechecks []*chunk
	for i, id := range cfg.IDs {
		var refs, again []cellRef
		for j, seed := range cfg.Seeds {
			ref := cellRef{id: id, seed: seed, gi: i*len(cfg.Seeds) + j}
			refs = append(refs, ref)
			if grid.Cells[ref.gi].Rechecked {
				again = append(again, ref)
			}
		}
		chunks = append(chunks, splitChunks(id, refs, cfg.ChunkSize)...)
		rechecks = append(rechecks, splitChunks(id, again, cfg.ChunkSize)...)
	}
	if cfg.CostHint != nil {
		sort.SliceStable(chunks, func(a, b int) bool {
			return cfg.CostHint(chunks[a].id) > cfg.CostHint(chunks[b].id)
		})
	}
	chunks = append(chunks, rechecks...)

	s := newSched(&cfg, grid, healths)
	s.stats.Cells = len(grid.Cells)
	s.stats.Rechecks = grid.Rechecked()
	s.stats.Chunks = len(chunks)
	start := time.Now()
	s.run(ctx, chunks)

	res, err := grid.Settle(time.Since(start))
	rep := &Report{Result: res, Stats: s.stats}
	for _, w := range s.workers {
		rep.Workers = append(rep.Workers, WorkerStatus{
			URL: w.url, Health: w.health, Slots: w.slots,
			Chunks: w.chunks, Cells: w.cells, Fails: w.fails, Dead: w.dead,
		})
	}
	return rep, err
}
