package uwb

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"sync"
)

// scratch is a buffer arena for one ranging measurement: the waveform,
// two-plane and correlation buffers, plus a one-entry STS cache. Measure
// propagates straight into the positive plane of dec, so the
// observation has no buffer of its own. Measure and the scratchless
// entry points borrow one from scratchPool for the duration of a call,
// so the hundreds of measurements an experiment sweep performs — across
// encounters, sessions and goroutines — reuse a handful of arenas
// instead of allocating per Session. Output cannot depend on which
// arena a call gets: every buffer is fully (re)initialised before use,
// and the STS cache is validated by (key, session, pulses).
//
// A scratch must not be shared between concurrently running
// measurements; the pool hands each borrower its own.
type scratch struct {
	waveform Signal
	corr     []float64
	dec      []float64
	// pack and tailOff are the last correlated template's plane-selecting
	// byte offsets (see correlateScratch); pulses is its length.
	pack    []uint64
	tailOff uintptr
	pulses  int

	// One-entry STS cache keyed by (key, session, pulses): repeated
	// measurements of an unchanged session skip the AES-CTR derivation.
	// The expanded AES cipher is cached separately per key, so sweeps
	// that advance the session counter still skip the key expansion.
	sts        *STS
	stsKey     []byte
	stsSession uint32
	aesBlock   cipher.Block
	ksBuf      []byte
	ctr        ctrState
}

// scratchPool holds the idle arenas shared by every measurement.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch borrows an arena. Return it to scratchPool once nothing
// derived from it (STS, waveform, observation, correlation) is in use.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// stsFor returns the STS for (key, session, pulses), reusing the cached
// derivation when the parameters are unchanged since the last call and
// the cached key schedule whenever the key is unchanged.
func (sc *scratch) stsFor(key []byte, session uint32, pulses int) (*STS, error) {
	sameKey := bytes.Equal(sc.stsKey, key)
	if sc.sts != nil && sc.stsSession == session &&
		len(sc.sts.Polarity) == pulses && sameKey {
		return sc.sts, nil
	}
	if pulses <= 0 {
		return nil, fmt.Errorf("uwb: sts length %d", pulses)
	}
	if !sameKey || sc.aesBlock == nil {
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, fmt.Errorf("uwb: sts key: %w", err)
		}
		sc.aesBlock = block
		sc.stsKey = append(sc.stsKey[:0], key...)
	}
	// Derive in place: the scratch owns its STS (nothing else retains
	// it), so the keystream buffer and every derived array are reused.
	need := (pulses + 7) / 8
	if cap(sc.ksBuf) < need {
		sc.ksBuf = make([]byte, need)
	}
	sc.ksBuf = sc.ksBuf[:need]
	sc.ctr.keystream(sc.aesBlock, session, sc.ksBuf)
	if sc.sts == nil {
		sc.sts = &STS{}
	}
	sc.sts.setFromKeystream(sc.ksBuf, pulses)
	sc.stsSession = session
	return sc.sts, nil
}

// floatsFor returns a length-n slice reusing buf's backing array when
// large enough. Contents are unspecified; callers overwrite every
// element they read.
func floatsFor(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// u64For is floatsFor for uint64 slices.
func u64For(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
