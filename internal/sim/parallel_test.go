package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// serialReplicates is the loop Replicates replaces: fork per iteration,
// run in order. The reference for every bit-identity assertion below.
func serialReplicates(n int, rng *RNG, fn func(i int, rng *RNG) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i, rng.Fork()); err != nil {
			return err
		}
	}
	return nil
}

// replicateDraws runs a small variable-length random walk per replicate
// and records a stream fingerprint per index.
func replicateDraws(i int, rng *RNG, out []uint64) error {
	steps := 3 + rng.Intn(13)
	var acc uint64
	for s := 0; s < steps; s++ {
		acc = acc*0x9E3779B9 + rng.Uint64()
	}
	out[i] = acc
	return nil
}

func TestReplicatesBitIdenticalToSerialLoop(t *testing.T) {
	const n = 37
	want := make([]uint64, n)
	ref := NewRNG(99)
	if err := serialReplicates(n, ref, func(i int, r *RNG) error {
		return replicateDraws(i, r, want)
	}); err != nil {
		t.Fatal(err)
	}
	wantParent := ref.Uint64() // parent stream must be consumed identically

	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0), 32} {
		var pool *WorkerPool
		if workers > 0 {
			pool = NewWorkerPool(workers)
		}
		got := make([]uint64, n)
		parent := NewRNG(99)
		if err := pool.Replicates(n, parent, func(i int, r *RNG) error {
			return replicateDraws(i, r, got)
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: replicate %d diverged: %x vs %x", workers, i, got[i], want[i])
			}
		}
		if p := parent.Uint64(); p != wantParent {
			t.Fatalf("workers=%d: parent stream diverged after Replicates: %x vs %x", workers, p, wantParent)
		}
	}
}

func TestReplicatesNilPoolSerial(t *testing.T) {
	var pool *WorkerPool
	if pool.Size() != 1 {
		t.Fatalf("nil pool size = %d, want 1", pool.Size())
	}
	if pool.TryAcquire() {
		t.Fatal("nil pool must not hand out slots")
	}
	pool.Acquire() // must not block or panic
	pool.Release()
	n := 0
	if err := pool.Replicates(5, NewRNG(1), func(i int, r *RNG) error {
		if i != n {
			t.Fatalf("nil pool ran out of order: got %d want %d", i, n)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ran %d replicates, want 5", n)
	}
}

func TestReplicatesReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("replicate 3 failed")
	for _, workers := range []int{1, 4} {
		pool := NewWorkerPool(workers)
		err := pool.Replicates(16, NewRNG(7), func(i int, r *RNG) error {
			if i >= 3 {
				return fmt.Errorf("replicate %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
	}
}

// TestReplicatesPanicIsLowestIndexError checks that a panicking
// replicate fails with its index instead of taking down the process:
// with panics at indices 3 and 5, every pool size reports index 3,
// every replicate still runs, and every borrowed slot comes home.
func TestReplicatesPanicIsLowestIndexError(t *testing.T) {
	const n = 8
	for _, workers := range []int{0, 1, 4} {
		var pool *WorkerPool
		if workers > 0 {
			pool = NewWorkerPool(workers)
		}
		var ran atomic.Int64
		err := pool.Replicates(n, NewRNG(7), func(i int, r *RNG) error {
			ran.Add(1)
			if i == 3 || i == 5 {
				panic(fmt.Sprintf("boom %d", i))
			}
			return nil
		})
		if err == nil || err.Error() != "replicate 3: panic: boom 3" {
			t.Errorf("workers=%d: err = %v, want replicate 3's panic", workers, err)
		}
		if ran.Load() != n {
			t.Errorf("workers=%d: ran %d replicates, want %d", workers, ran.Load(), n)
		}
		for i := 0; i < workers; i++ {
			if !pool.TryAcquire() {
				t.Fatalf("workers=%d: slot %d not returned after a panic", workers, i)
			}
		}
	}
}

func TestReplicatesConcurrencyBounded(t *testing.T) {
	pool := NewWorkerPool(3)
	var cur, max atomic.Int64
	if err := pool.Replicates(64, NewRNG(5), func(i int, r *RNG) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		// Draw a little to give workers a chance to overlap.
		for s := 0; s < 100; s++ {
			r.Uint64()
		}
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Caller's implicit slot + at most 2 borrowed (one pool slot is
	// never borrowed because borrowing stops at n-1... the bound that
	// matters: never more than pool size + 1 concurrent replicates).
	if got := max.Load(); got > 4 {
		t.Fatalf("observed %d concurrent replicates, budget allows at most 4", got)
	}
}

func TestReplicatesSlotsReturned(t *testing.T) {
	pool := NewWorkerPool(4)
	for round := 0; round < 3; round++ {
		if err := pool.Replicates(8, NewRNG(int64(round+1)), func(i int, r *RNG) error {
			r.Uint64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// All four slots must be home again.
	for i := 0; i < 4; i++ {
		if !pool.TryAcquire() {
			t.Fatalf("slot %d not returned to the pool", i)
		}
	}
	if pool.TryAcquire() {
		t.Fatal("pool handed out a fifth slot")
	}
	for i := 0; i < 4; i++ {
		pool.Release()
	}
}
