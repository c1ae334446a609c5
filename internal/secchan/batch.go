package secchan

// Batched secure-channel entry points: plain Protect and Verify loops
// over a burst of frames, with exactly the wires, verdicts and
// receiver-state transitions of calling the single-frame methods in
// order. perfbench's secchan.batch_ns_per_frame probe is their only
// caller outside tests.

// Verdict is one frame's VerifyBatch outcome: the authenticated payload
// or the error Verify returned.
type Verdict struct {
	Payload []byte
	Err     error
}

// ProtectBatch protects payloads through s in order, appending the
// wires to dst[:0]. It stops at the first error, returning the wires
// protected so far.
func ProtectBatch(s Suite, payloads, dst [][]byte) ([][]byte, error) {
	out := dst[:0]
	for _, p := range payloads {
		wire, err := s.Protect(p)
		if err != nil {
			return out, err
		}
		out = append(out, wire)
	}
	return out, nil
}

// VerifyBatch verifies wires through s in order, writing one Verdict
// per frame into verdicts (grown as needed) and returning the used
// prefix. Frame errors are per-verdict, never batch-fatal.
func VerifyBatch(s Suite, wires [][]byte, verdicts []Verdict) []Verdict {
	verdicts = verdicts[:0]
	for _, w := range wires {
		payload, err := s.Verify(w)
		verdicts = append(verdicts, Verdict{payload, err})
	}
	return verdicts
}
