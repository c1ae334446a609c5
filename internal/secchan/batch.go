package secchan

// Batched secure-channel entry points. VerifyBatch takes a suite's
// native batch path when it implements BatchSuite and a
// frame-at-a-time loop otherwise. Among the built-in suites only SECOC
// has a native path: the MAC ablation verifies its forgery floods in
// bursts, and SECOC's batch verify pipelines their MACs through the
// AES-NI batched CMAC kernel in vcrypto (8 MAC chains per call). The
// AES-GCM suites have no cross-frame crypto to merge and take the loop.
// ProtectBatch is a Protect loop for every suite.
//
// The contract is strict serial equivalence: a suite's VerifyBatch
// must produce exactly the verdicts and receiver-state transitions of
// calling Verify in wire order. Batching is therefore invisible in
// every golden output; the differential fuzzer in secchan/suites
// enforces it.

// Verdict is one frame's VerifyBatch outcome: the authenticated payload
// or the error the single-frame Verify would have returned. A batch
// implementation may build Payload in the caller's existing backing
// array (verdicts are caller-owned scratch), so a payload is valid
// until its Verdict slot is reused.
type Verdict struct {
	Payload []byte
	Err     error
}

// BatchSuite is optionally implemented by suites with a native batched
// verify path. Third-party suites that only implement Suite keep
// working: the package-level VerifyBatch falls back to a frame-at-a-time
// loop with identical semantics.
type BatchSuite interface {
	Suite
	// VerifyBatch verifies wires in order, writing one Verdict per
	// frame into verdicts (grown as needed) and returning the used
	// prefix. Frame errors are per-verdict, never batch-fatal, and
	// receiver state advances exactly as a Verify loop would.
	VerifyBatch(wires [][]byte, verdicts []Verdict) []Verdict
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

// VerifyBatch verifies wires through s, taking the suite's native batch
// path when it implements BatchSuite and an equivalent frame-at-a-time
// loop otherwise. See BatchSuite.VerifyBatch for the verdict contract.
func VerifyBatch(s Suite, wires [][]byte, verdicts []Verdict) []Verdict {
	if bs, ok := s.(BatchSuite); ok {
		return bs.VerifyBatch(wires, verdicts)
	}
	verdicts = SizeVerdicts(verdicts, len(wires))
	for i, w := range wires {
		verdicts[i].Payload, verdicts[i].Err = s.Verify(w)
	}
	return verdicts
}

// SizeVerdicts reslices verdicts to n elements, reallocating only when
// the backing array is too small. Existing payload backings survive the
// reslice, so batch verify paths can append into them.
func SizeVerdicts(verdicts []Verdict, n int) []Verdict {
	if cap(verdicts) < n {
		grown := make([]Verdict, n)
		copy(grown, verdicts[:cap(verdicts)])
		return grown
	}
	return verdicts[:n]
}
