package suites

import (
	"testing"

	"autosec/internal/secchan"
	"autosec/internal/sim"
)

// Differential fuzzing of every suite against a naive model of its
// replay discipline: the fuzzer picks an arbitrary delivery schedule
// (reorderings, duplicates, window-boundary jumps) over genuinely
// protected messages, and each delivery's accept/reject through the
// full suite — wire parsing, crypto, and the secchan kernel — must
// match the model's prediction. The models are deliberately naive
// restatements of each protocol's pre-kernel acceptance rule, not
// calls back into secchan.
//
// Counter-wrap behaviour (sequence numbers near 2^32/2^64) cannot be
// reached by protecting messages one at a time; it is covered
// differentially at the kernel layer (package secchan's reference
// fuzz tests, which replay the same streams with a wrapping decoder)
// and white-box in package macsec's PN-wrap tests.

// deliverySchedule decodes fuzz data into 1-based sequence numbers in
// [1, maxSeq], one delivery per input byte (two bytes when maxSeq
// needs them).
func deliverySchedule(data []byte, maxSeq int) []int {
	var seqs []int
	if maxSeq <= 256 {
		for _, b := range data {
			seqs = append(seqs, 1+int(b)%maxSeq)
		}
		return seqs
	}
	for i := 0; i+1 < len(data); i += 2 {
		v := int(data[i])<<8 | int(data[i+1])
		seqs = append(seqs, 1+v%maxSeq)
	}
	return seqs
}

// runDifferential protects maxSeq messages through the suite, then
// delivers them in the fuzz-chosen order, comparing each verify
// outcome with the reference acceptor. ref must return whether seq is
// acceptable and commit its own state when it is.
func runDifferential(t *testing.T, data []byte, e secchan.Entry, maxSeq int, ref func(seq int) bool) {
	t.Helper()
	s, err := e.New(secchan.Params{Key: testKey, RNG: sim.NewRNG(7)})
	if err != nil {
		t.Fatalf("%s: New: %v", e.Name, err)
	}
	wires := make([][]byte, maxSeq+1)
	for seq := 1; seq <= maxSeq; seq++ {
		wires[seq], err = s.Protect([]byte{byte(seq), byte(seq >> 8)})
		if err != nil {
			t.Fatalf("%s: Protect #%d: %v", e.Name, seq, err)
		}
	}
	for i, seq := range deliverySchedule(data, maxSeq) {
		_, err := s.Verify(wires[seq])
		got := err == nil
		if want := ref(seq); got != want {
			t.Fatalf("%s: delivery %d of seq %d: suite accepted=%v, reference %v (err: %v)",
				e.Name, i, seq, got, want, err)
		}
	}
}

// bitmapRef is the naive RFC 4303-style sliding window both tlslite
// and ipsec used before the kernel refactor.
type bitmapRef struct {
	size   int
	high   int
	bitmap uint64
}

func (r *bitmapRef) accept(seq int) bool {
	if seq == 0 {
		return false
	}
	if seq > r.high {
		shift := seq - r.high
		if shift >= 64 {
			r.bitmap = 0
		} else {
			r.bitmap <<= shift
		}
		r.bitmap |= 1
		r.high = seq
		return true
	}
	diff := r.high - seq
	if diff >= r.size || diff >= 64 || r.bitmap&(1<<diff) != 0 {
		return false
	}
	r.bitmap |= 1 << diff
	return true
}

// counterRef is the strict-increasing accept-window rule of SECOC
// freshness and CANsec: no reordering behind, bounded loss ahead.
type counterRef struct {
	window int
	last   int
}

func (r *counterRef) accept(seq int) bool {
	if seq <= r.last || seq > r.last+r.window {
		return false
	}
	r.last = seq
	return true
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})         // in order
	f.Add([]byte{0, 0, 1, 1, 2, 2})         // duplicates
	f.Add([]byte{5, 3, 4, 1, 2})            // reordered
	f.Add([]byte{0, 90, 1, 91, 2})          // window-boundary jumps
	f.Add([]byte{95, 0, 95, 0})             // stale after far-future
	f.Add([]byte{0, 4, 1, 4, 2, 4, 8, 255}) // mixed
}

func FuzzSECOCSuiteVsReference(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Lookup("SECOC")
		if err != nil {
			t.Fatal(err)
		}
		// SECOC: accept window 64 above the counter. A genuine PDU's
		// MAC only matches its true freshness value, so candidate
		// reconstruction succeeds exactly when that value is in-window.
		ref := &counterRef{window: 64}
		runDifferential(t, data, e, 96, ref.accept)
	})
}

func FuzzTLSSuiteVsReference(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Lookup("(D)TLS")
		if err != nil {
			t.Fatal(err)
		}
		ref := &bitmapRef{size: 64}
		runDifferential(t, data, e, 96, ref.accept)
	})
}

func FuzzIPsecSuiteVsReference(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Lookup("IPsec ESP")
		if err != nil {
			t.Fatal(err)
		}
		ref := &bitmapRef{size: 64}
		runDifferential(t, data, e, 96, ref.accept)
	})
}

func FuzzMACsecSuiteVsReference(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Lookup("MACsec")
		if err != nil {
			t.Fatal(err)
		}
		// The suite's SecY runs the 802.1AE default: replay window 0,
		// strictly increasing PNs.
		high := 0
		runDifferential(t, data, e, 96, func(seq int) bool {
			if seq <= high {
				return false
			}
			high = seq
			return true
		})
	})
}

func FuzzCANsecSuiteVsReference(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Lookup("CANsec")
		if err != nil {
			t.Fatal(err)
		}
		// 1100 protected frames spans the 1024-frame acceptance window,
		// so schedules can jump past it.
		ref := &counterRef{window: 1024}
		runDifferential(t, data, e, 1100, ref.accept)
	})
}
