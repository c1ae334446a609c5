// Deterministic intra-experiment parallelism: a bounded, shareable
// worker budget (WorkerPool) and a replicate fan-out runner
// (WorkerPool.Replicates) that is bit-identical to the serial loop it
// replaces, by construction:
//
//  1. The per-replicate RNGs are forked from the parent *serially, in
//     index order*, before any work is dispatched — so the parent
//     stream is consumed exactly as a serial fork-per-iteration loop
//     would consume it, and every replicate sees the same stream
//     regardless of scheduling.
//  2. Replicates only write to index-addressed state; Replicates joins
//     every replicate before returning, so the caller reads results
//     (and renders tables) in index order no matter which worker ran
//     what.
//
// A single pool can be shared across nesting levels: the campaign
// runner sizes one pool to its -jobs budget, each cell holds one slot
// while it runs, and the replicate fan-out inside a cell borrows only
// slots that are currently idle (TryAcquire). When the grid drains down
// to one straggler cell, the idle cell workers' slots are picked up by
// that cell's replicate loops — the two-level parallelism shares one
// global budget instead of oversubscribing. See docs/PERFORMANCE.md,
// "Two-level parallelism".
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// WorkerPool is a bounded budget of execution slots shared by every
// level of parallelism that references it. The zero value is not
// usable; construct with NewWorkerPool. A nil *WorkerPool is valid
// everywhere and means "no extra workers": Replicates degrades to the
// plain serial loop.
type WorkerPool struct {
	slots chan struct{}
}

// NewWorkerPool returns a pool with n slots (n < 1 is clamped to 1).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{slots: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// Size reports the pool's total slot budget.
func (p *WorkerPool) Size() int {
	if p == nil {
		return 1
	}
	return cap(p.slots)
}

// Acquire blocks until a slot is free and claims it. Callers that hold
// a slot for the duration of a work item (e.g. one campaign cell) make
// the budget global: nested fan-out can only borrow what is idle.
// A nil pool is a no-op.
func (p *WorkerPool) Acquire() {
	if p == nil {
		return
	}
	<-p.slots
}

// TryAcquire claims a slot only if one is immediately free. A nil pool
// always reports false.
func (p *WorkerPool) TryAcquire() bool {
	if p == nil {
		return false
	}
	select {
	case <-p.slots:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by Acquire or TryAcquire. A nil pool
// is a no-op.
func (p *WorkerPool) Release() {
	if p == nil {
		return
	}
	p.slots <- struct{}{}
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *WorkerPool
)

// DefaultPool returns the process-wide pool, sized to GOMAXPROCS at
// first use. It backs runs that have no caller-provided budget (e.g.
// `avsec expmd`, which runs every experiment once); callers that
// coordinate several levels of parallelism should size their own pool
// instead.
func DefaultPool() *WorkerPool {
	defaultPoolOnce.Do(func() {
		defaultPool = NewWorkerPool(runtime.GOMAXPROCS(0))
	})
	return defaultPool
}

// Replicates runs n independent Monte-Carlo replicates of fn, fanning
// them out over whatever slots of the pool are currently idle, and
// returns only after every replicate has finished ("join before any
// table row is written"). The caller's own slot is implicit: the
// calling goroutine always executes replicates itself, so progress
// never depends on borrowing.
//
// Determinism contract: fn(i, r) must draw randomness only from r (the
// i-th serial fork of rng) and must confine writes to state owned by
// index i. Under that contract the observable output is bit-identical
// for every pool size, including nil. The first error by replicate
// index is returned; all n replicates run regardless, so the
// side-effect surface does not depend on scheduling. A replicate that
// panics fails with the error "replicate <i>: panic: <value>" instead
// of taking down the process, so the lowest panicking index is the one
// reported at every pool size.
func (p *WorkerPool) Replicates(n int, rng *RNG, fn func(i int, rng *RNG) error) error {
	if n <= 0 {
		return nil
	}
	// Serial pre-fork in index order: the parent stream is consumed
	// exactly as the serial fork-per-iteration loop consumed it.
	rngs := make([]*RNG, n)
	for i := range rngs {
		rngs[i] = rng.Fork()
	}
	// A panic is recoverable only on its own goroutine, so every
	// replicate recovers where it runs.
	run := func(i int) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("replicate %d: panic: %v", i, v)
			}
		}()
		return fn(i, rngs[i])
	}

	// Borrow idle slots, never more than the n-1 replicates the calling
	// goroutine won't need to run itself.
	extra := 0
	for extra < n-1 && p.TryAcquire() {
		extra++
	}
	if extra == 0 {
		var first error
		for i := 0; i < n; i++ {
			if err := run(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = run(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			defer p.Release()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
