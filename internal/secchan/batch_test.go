package secchan

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestFirstCandidateAfterMatchesIterator compares the O(1) predictor
// against the scanning iterator across bit widths, windows, and last
// values, including the window edges.
func TestFirstCandidateAfterMatchesIterator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		bits := 1 + rng.Intn(16)
		f := &Freshness{Bits: bits, Window: uint64(rng.Intn(300))}
		f.last = uint64(rng.Intn(1 << 18))
		trunc := uint64(rng.Intn(1 << bits))

		it := f.Candidates(trunc)
		wantV, wantOK := uint64(0), it.Next()
		if wantOK {
			wantV = it.Value()
		}
		gotV, gotOK := f.FirstCandidateAfter(f.last, trunc)
		if gotOK != wantOK || (wantOK && gotV != wantV) {
			t.Fatalf("bits=%d window=%d last=%d trunc=%d: predictor (%d,%v), iterator (%d,%v)",
				bits, f.Window, f.last, trunc, gotV, gotOK, wantV, wantOK)
		}
	}
	// 64-bit truncation sends the full counter on the wire.
	f := &Freshness{Bits: 64, Window: 10}
	f.last = 100
	if v, ok := f.FirstCandidateAfter(100, 105); !ok || v != 105 {
		t.Fatalf("full-width candidate: got %d,%v", v, ok)
	}
	if _, ok := f.FirstCandidateAfter(100, 90); ok {
		t.Fatal("stale full-width counter must have no candidate")
	}
	if _, ok := f.FirstCandidateAfter(100, 200); ok {
		t.Fatal("out-of-window full-width counter must have no candidate")
	}
}

// loopSuite is a minimal third-party Suite (no BatchSuite) used to
// exercise the generic adapters.
type loopSuite struct {
	counter uint64
	failAt  uint64 // Protect fails when counter reaches this
}

func (l *loopSuite) Protect(payload []byte) ([]byte, error) {
	l.counter++
	if l.failAt != 0 && l.counter >= l.failAt {
		return nil, errors.New("loop: exhausted")
	}
	return append(append([]byte(nil), payload...), byte(l.counter)), nil
}

func (l *loopSuite) Verify(wire []byte) ([]byte, error) {
	if len(wire) == 0 || wire[len(wire)-1] == 0 {
		return nil, errors.New("loop: bad frame")
	}
	return wire[:len(wire)-1], nil
}

// TestGenericBatchAdapters checks the frame-at-a-time paths: wires and
// verdicts equal the serial loop, and a mid-batch Protect error stops
// the batch with the already-protected prefix.
func TestGenericBatchAdapters(t *testing.T) {
	payloads := [][]byte{{1}, {2}, {3}, {4}}

	s := &loopSuite{}
	wires, err := ProtectBatch(s, payloads, nil)
	if err != nil || len(wires) != 4 {
		t.Fatalf("ProtectBatch: %v (%d wires)", err, len(wires))
	}
	ref := &loopSuite{}
	for i, p := range payloads {
		want, _ := ref.Protect(p)
		if fmt.Sprint(want) != fmt.Sprint(wires[i]) {
			t.Fatalf("wire %d: batch %v, serial %v", i, wires[i], want)
		}
	}

	bad := append([][]byte{}, wires...)
	bad[2] = []byte{9, 0} // trailing zero fails Verify
	verdicts := VerifyBatch(s, bad, nil)
	if len(verdicts) != 4 {
		t.Fatalf("got %d verdicts", len(verdicts))
	}
	for i, v := range verdicts {
		if (v.Err == nil) != (i != 2) {
			t.Fatalf("verdict %d: err=%v", i, v.Err)
		}
		if v.Err == nil && fmt.Sprint(v.Payload) != fmt.Sprint(payloads[i]) {
			t.Fatalf("verdict %d payload %v, want %v", i, v.Payload, payloads[i])
		}
	}

	failing := &loopSuite{failAt: 3}
	wires, err = ProtectBatch(failing, payloads, nil)
	if err == nil {
		t.Fatal("want mid-batch protect error")
	}
	if len(wires) != 2 {
		t.Fatalf("want 2 protected frames before the error, got %d", len(wires))
	}
}
