package suites

import (
	"bytes"
	"testing"

	"autosec/internal/secchan"
	"autosec/internal/sim"
)

// batchEntries returns every built-in suite, including the
// integrity-only MACsec variant that is not a registry row.
func batchEntries(t testing.TB) []secchan.Entry {
	integ, err := Lookup("MACsec-integ")
	if err != nil {
		t.Fatal(err)
	}
	return append(Registry(), integ)
}

// newTwin builds two identically-keyed instances of a suite: one driven
// through the batch APIs, one through the single-frame APIs, so tests
// can require identical wires and verdicts.
func newTwin(t *testing.T, e secchan.Entry) (batch, serial secchan.Suite) {
	t.Helper()
	b, err := e.New(secchan.Params{Key: testKey, RNG: sim.NewRNG(7)})
	if err != nil {
		t.Fatalf("%s: New: %v", e.Name, err)
	}
	s, err := e.New(secchan.Params{Key: testKey, RNG: sim.NewRNG(7)})
	if err != nil {
		t.Fatalf("%s: New: %v", e.Name, err)
	}
	return b, s
}

// TestBatchMatchesSingleFrame drives every suite's batch path and its
// single-frame twin through the same traffic — honest frames, a
// corrupted frame, a truncated frame, and a replayed frame mid-batch —
// and requires identical wires, per-frame verdicts, and payloads: the
// batch loops of secchan/batch.go, error frames included, are the
// single-frame calls in order.
func TestBatchMatchesSingleFrame(t *testing.T) {
	for _, e := range batchEntries(t) {
		t.Run(e.Name, func(t *testing.T) {
			bs, ss := newTwin(t, e)

			payloads := [][]byte{
				{1, 2, 3, 4}, {}, {5}, bytes.Repeat([]byte{0xA5}, 64),
				{9, 8, 7}, bytes.Repeat([]byte{0x11}, 200),
			}
			wires, err := secchan.ProtectBatch(bs, payloads, nil)
			if err != nil {
				t.Fatalf("ProtectBatch: %v", err)
			}
			serialWires := make([][]byte, len(payloads))
			for i, p := range payloads {
				serialWires[i], err = ss.Protect(p)
				if err != nil {
					t.Fatalf("Protect #%d: %v", i, err)
				}
				if !bytes.Equal(wires[i], serialWires[i]) {
					t.Fatalf("wire %d: batch %x, serial %x", i, wires[i], serialWires[i])
				}
			}

			// Mixed delivery: in-order frames with a corrupted MAC, a
			// truncated frame, and a replay in the middle.
			corrupt := append([]byte(nil), wires[1]...)
			corrupt[len(corrupt)-1] ^= 0xFF
			delivery := [][]byte{
				wires[0], corrupt, wires[1], wires[0], // wires[0] again = replay
				wires[2][:1], wires[3], wires[4], wires[5],
			}
			verdicts := secchan.VerifyBatch(bs, delivery, nil)
			if len(verdicts) != len(delivery) {
				t.Fatalf("got %d verdicts for %d wires", len(verdicts), len(delivery))
			}
			for i, w := range delivery {
				pt, serr := ss.Verify(w)
				if gotOK, wantOK := verdicts[i].Err == nil, serr == nil; gotOK != wantOK {
					t.Fatalf("frame %d: batch err=%v, serial err=%v", i, verdicts[i].Err, serr)
				}
				if serr == nil && !bytes.Equal(verdicts[i].Payload, pt) {
					t.Fatalf("frame %d payload: batch %x, serial %x", i, verdicts[i].Payload, pt)
				}
			}
		})
	}
}

// FuzzBatchVerifyEquivalence checks every suite's batch loop against
// its single-frame twin: the fuzzer picks a delivery schedule over
// protected frames — reorderings, duplicates, corruptions — and an
// arbitrary batch segmentation with a reused verdict buffer, and the
// batched verdicts and payloads must equal the serial loop's.
func FuzzBatchVerifyEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{5, 3, 4, 1, 2})
	f.Add([]byte{0x80, 1, 0x82, 3, 4})  // corruptions mixed in
	f.Add([]byte{0, 90, 1, 91, 2, 255}) // window jumps
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, e := range batchEntries(t) {
			bs, ss := newTwin(t, e)
			const maxSeq = 96
			payloads := make([][]byte, maxSeq)
			for i := range payloads {
				payloads[i] = []byte{byte(i), byte(i >> 8)}
			}
			wires, err := secchan.ProtectBatch(bs, payloads, nil)
			if err != nil {
				t.Fatalf("%s: ProtectBatch: %v", e.Name, err)
			}
			for i, p := range payloads {
				want, err := ss.Protect(p)
				if err != nil {
					t.Fatalf("%s: Protect #%d: %v", e.Name, i, err)
				}
				if !bytes.Equal(wires[i], want) {
					t.Fatalf("%s: wire %d: batch %x, serial %x", e.Name, i, wires[i], want)
				}
			}

			// Decode deliveries: low bits pick the frame, the high bit
			// corrupts a copy of it.
			delivery := make([][]byte, 0, len(data))
			for _, b := range data {
				w := wires[int(b&0x7F)%maxSeq]
				if b&0x80 != 0 {
					c := append([]byte(nil), w...)
					c[len(c)-1] ^= 0x55
					w = c
				}
				delivery = append(delivery, w)
			}
			// Arbitrary batch segmentation, sizes cycling with the data.
			var verdicts []secchan.Verdict
			for start, k := 0, 0; start < len(delivery); k++ {
				size := 1 + (int(data[k%len(data)])+k)%7
				endAt := start + size
				if endAt > len(delivery) {
					endAt = len(delivery)
				}
				chunk := delivery[start:endAt]
				verdicts = secchan.VerifyBatch(bs, chunk, verdicts)
				for i, w := range chunk {
					pt, serr := ss.Verify(w)
					if gotOK, wantOK := verdicts[i].Err == nil, serr == nil; gotOK != wantOK {
						t.Fatalf("%s: frame %d: batch err=%v, serial err=%v",
							e.Name, start+i, verdicts[i].Err, serr)
					}
					if serr == nil && !bytes.Equal(verdicts[i].Payload, pt) {
						t.Fatalf("%s: frame %d payload mismatch", e.Name, start+i)
					}
				}
				start = endAt
			}
		}
	})
}
