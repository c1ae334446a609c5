package secchan

import (
	"math/rand"
	"slices"
	"testing"
)

// tryExact returns a predicate accepting exactly the given full value —
// the shape a real MAC check has when the sender's counter is known.
func tryExact(want uint64) func(uint64) bool {
	return func(c uint64) bool { return c == want }
}

func TestFreshnessReconstructInOrder(t *testing.T) {
	f := &Freshness{Bits: 8, Window: 64}
	for want := uint64(1); want <= 5; want++ {
		got, ok := f.Reconstruct(want&0xff, tryExact(want))
		if !ok || got != want {
			t.Fatalf("Reconstruct(%d) = %d, %v", want, got, ok)
		}
	}
	if f.Last() != 5 {
		t.Fatalf("Last = %d, want 5", f.Last())
	}
}

func TestFreshnessToleratesLossWithinWindow(t *testing.T) {
	f := &Freshness{Bits: 8, Window: 64}
	// Sender is at 40; everything before was lost.
	got, ok := f.Reconstruct(40, tryExact(40))
	if !ok || got != 40 {
		t.Fatalf("lossy Reconstruct = %d, %v", got, ok)
	}
	// Truncation wrap: sender crosses a multiple of 2^8.
	f2 := &Freshness{Bits: 8, Window: 300}
	for _, want := range []uint64{250, 260} {
		got, ok := f2.Reconstruct(want&0xff, tryExact(want))
		if !ok || got != want {
			t.Fatalf("Reconstruct across truncation wrap: got %d, %v want %d", got, ok, want)
		}
	}
}

func TestFreshnessRejectsStaleAndBeyondWindow(t *testing.T) {
	f := &Freshness{Bits: 8, Window: 16}
	if _, ok := f.Reconstruct(5, tryExact(5)); !ok {
		t.Fatal("setup accept failed")
	}
	// Replay of 5: its truncation matches candidate 5+256 > window.
	if _, ok := f.Reconstruct(5, tryExact(5)); ok {
		t.Error("replayed value reconstructed")
	}
	// Sender jumped beyond the window.
	if _, ok := f.Reconstruct(40, tryExact(40)); ok {
		t.Error("beyond-window value reconstructed")
	}
	if f.Last() != 5 {
		t.Errorf("failed reconstructions moved Last to %d", f.Last())
	}
}

// TestFreshnessCandidateOrder pins the search order: candidates are
// tried smallest-first, so when several in-window values share a
// truncation the earliest MAC match wins — the SECOC receiver rule the
// ablate-fv experiment depends on.
func TestFreshnessCandidateOrder(t *testing.T) {
	f := &Freshness{Bits: 2, Window: 16} // truncation repeats every 4
	var tried []uint64
	f.Reconstruct(3, func(c uint64) bool {
		tried = append(tried, c)
		return false
	})
	want := []uint64{3, 7, 11, 15}
	if len(tried) != len(want) {
		t.Fatalf("tried %v, want %v", tried, want)
	}
	for i := range want {
		if tried[i] != want[i] {
			t.Fatalf("tried %v, want %v", tried, want)
		}
	}
}

func TestFreshnessMask(t *testing.T) {
	for _, tc := range []struct {
		bits int
		want uint64
	}{
		{8, 0xff}, {16, 0xffff}, {64, ^uint64(0)},
	} {
		f := &Freshness{Bits: tc.bits}
		if got := f.Mask(); got != tc.want {
			t.Errorf("Mask(%d bits) = %#x, want %#x", tc.bits, got, tc.want)
		}
	}
}

// TestFreshnessWindowWrapIsEmpty pins the documented wrap rule: when
// last+Window would overflow the counter space the candidate range is
// empty and everything is rejected.
func TestFreshnessWindowWrapIsEmpty(t *testing.T) {
	f := &Freshness{Bits: 8, Window: 64}
	f.last = ^uint64(0) - 3
	if _, ok := f.Reconstruct(0xfe, func(uint64) bool { return true }); ok {
		t.Error("reconstruction succeeded in a wrapped window")
	}
}

// scanCandidates is the linear-scan reference for Candidates: every
// value in (last, last+window] whose low bits equal trunc's, smallest
// first, and none when last+window wraps 2^64 (Reconstruct's rule).
func scanCandidates(last, window uint64, bits int, trunc uint64) []uint64 {
	mask := ^uint64(0) >> (64 - bits)
	end := last + window
	if end < last {
		return nil
	}
	var out []uint64
	for v := last; v != end; {
		v++
		if v&mask == trunc&mask {
			out = append(out, v)
		}
	}
	return out
}

// TestCandidatesNextMatchesLinearScan pins the arithmetic iterator to
// the linear scan over every bit width 1–64 with random last values,
// windows and truncations, including windows that end exactly at
// 2^64−1, windows that wrap, and last = 2^64−1.
func TestCandidatesNextMatchesLinearScan(t *testing.T) {
	const top = ^uint64(0)
	check := func(last, window uint64, bits int, trunc uint64) {
		t.Helper()
		f := &Freshness{Bits: bits, Window: window, last: last}
		var got []uint64
		for it := f.Candidates(trunc); it.Next() && len(got) <= int(window); {
			got = append(got, it.Value())
		}
		want := scanCandidates(last, window, bits, trunc)
		if slices.Equal(got, want) {
			return
		}
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("bits=%d last=%#x window=%d trunc=%#x: iterator gives %d candidates, scan %d; first difference at index %d (iterator %v, scan %v)",
			bits, last, window, trunc, len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
	}
	rng := rand.New(rand.NewSource(3))
	for bits := 1; bits <= 64; bits++ {
		for trial := 0; trial < 200; trial++ {
			window := uint64(rng.Intn(1200))
			var last uint64
			switch trial % 4 {
			case 0:
				last = uint64(rng.Intn(1 << 20))
			case 1:
				last = rng.Uint64()
			case 2:
				last = top - uint64(rng.Intn(1300)) // wraps, ends at, or stops short of 2^64−1
			case 3:
				last = top - window // ends exactly at 2^64−1
			}
			check(last, window, bits, rng.Uint64())
		}
		check(top, 0, bits, 0)
		check(top, 4, bits, 1)
		check(top-4, 4, bits, 1)
		check(top-4, 4, bits, top)
	}
}
