package secchan

import (
	"errors"
	"fmt"
	"testing"
)

// loopSuite is a minimal third-party Suite used to exercise the batch
// loops.
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

// TestGenericBatchAdapters checks the batch loops: wires and
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
