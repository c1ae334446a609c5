// Package uwb models an IEEE 802.15.4z-style ultra-wideband ranging
// physical layer at discrete-time sample level: secure training
// sequences (STS) for the high-rate-pulse (HRP) mode, data pulses with
// distance commitment for the low-rate-pulse (LRP) mode, a multipath
// channel with additive noise, correlation-based time-of-arrival
// estimation, and the distance-manipulation attacks and receiver
// integrity checks the paper's §II discusses (Fig. 2).
//
// The model is a substitution for radio hardware (see DESIGN.md): the
// attacks of interest — ghost-peak injection, early-detect/late-commit,
// signal annihilation and overshadowing — are properties of the
// correlation and detection mathematics, which this package implements
// faithfully on float64 sample vectors.
//
// Exercised by experiments fig2 and ablate-sts, and by exp-ca, its
// largest consumer, through the sensor suite's UWB ranging.
//
// The correlator runs in one of three tiers chosen once at init from
// sim.HostCPU: a 64-window AVX-512 kernel, a 32-window AVX2 kernel, or
// a 6-wide pure-Go loop (arm64, wasm, older amd64). Every tier is
// bit-identical to correlateRef, so results never depend on the host.
// The correlator reads a two-plane buffer [rx | −rx]; Session.Measure
// propagates the observation straight into its positive plane, so only
// the negated plane is written per correlation, and the receiver's STS
// consistency checks read the same planes.
package uwb

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math"

	"autosec/internal/sim"
)

// Physical constants of the model.
const (
	// SamplesPerNs is the simulator's time resolution: 2 samples per
	// nanosecond (a 2 GHz baseband grid, ~15 cm per sample of range).
	SamplesPerNs = 2

	// SpeedOfLight in metres per nanosecond.
	SpeedOfLight = 0.299792458

	// MetresPerSample is the one-way range resolution of one sample.
	MetresPerSample = SpeedOfLight / SamplesPerNs

	// ChipSpacing is the number of samples between consecutive STS
	// pulses (pulse repetition interval on the sample grid).
	ChipSpacing = 8
)

// Signal is a discrete-time baseband signal on the simulator's sample
// grid.
type Signal []float64

// Add mixes other into s starting at sample offset, extending s if
// needed, and returns the (possibly reallocated) result.
func (s Signal) Add(other Signal, offset int) Signal {
	need := offset + len(other)
	if need > len(s) {
		grown := make(Signal, need)
		copy(grown, s)
		s = grown
	}
	for i, v := range other {
		s[offset+i] += v
	}
	return s
}

// Energy returns the sum of squared samples in [from, to).
func (s Signal) Energy(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s) {
		to = len(s)
	}
	e := 0.0
	for i := from; i < to; i++ {
		e += s[i] * s[i]
	}
	return e
}

// STS is a secure training sequence: a cryptographically pseudorandom
// antipodal (±1) pulse polarity sequence. Both sides of a ranging
// exchange derive it from a shared key and a session nonce, so an
// attacker without the key cannot predict pulse polarities in advance.
type STS struct {
	Polarity []int8 // +1 or -1 per pulse

	// template caches Polarity as float64 so the correlation inner loop
	// never converts int8 per element. NewSTS builds it eagerly; for
	// hand-constructed STS values it is filled on first use (that lazy
	// path is not safe for concurrent first calls). The correlator's
	// byte-offset form of the template depends on the observation length,
	// so it is built per call from Polarity (see correlateScratch).
	template []float64
}

// ensureDerived (re)builds the cached template forms when Polarity has
// changed length since they were derived.
func (s *STS) ensureDerived() {
	if len(s.template) == len(s.Polarity) {
		return
	}
	s.template = make([]float64, len(s.Polarity))
	for i, p := range s.Polarity {
		s.template[i] = float64(p)
	}
}

// Template returns the polarity sequence as ±1.0 float64 values, the
// form the correlators consume. The slice is cached on the STS and must
// not be mutated by callers.
func (s *STS) Template() []float64 {
	s.ensureDerived()
	return s.template
}

// NewSTS derives a length-pulse STS from an AES-128 key and a session
// counter using AES-CTR as the pseudorandom generator, mirroring the
// 802.15.4z construction (AES-128 in counter mode seeded by the STS
// key and upper-96/counter fields).
func NewSTS(key []byte, session uint32, pulses int) (*STS, error) {
	if pulses <= 0 {
		return nil, fmt.Errorf("uwb: sts length %d", pulses)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("uwb: sts key: %w", err)
	}
	return newSTSFromBlock(block, session, pulses)
}

// newSTSFromBlock is NewSTS with the AES key schedule already expanded;
// the session scratch caches the cipher per key so repeated derivations
// skip the key expansion.
func newSTSFromBlock(block cipher.Block, session uint32, pulses int) (*STS, error) {
	if pulses <= 0 {
		return nil, fmt.Errorf("uwb: sts length %d", pulses)
	}
	buf := make([]byte, (pulses+7)/8)
	new(ctrState).keystream(block, session, buf)
	sts := &STS{}
	sts.setFromKeystream(buf, pulses)
	return sts, nil
}

// ctrState is AES-CTR's working pair: the counter block and one block
// of keystream. Both pass through cipher.Block's interface methods and
// so escape; the scratch arena keeps its own pair, which makes a
// derivation there allocation-free.
type ctrState struct {
	ctr, ks [aes.BlockSize]byte
}

// keystream fills dst with the AES-CTR keystream for the given session
// counter: byte-identical to cipher.NewCTR over a zero buffer with the
// session in the IV's first four bytes (the IV is incremented as one
// big-endian counter, as the stdlib stream does), but without
// allocating a stream object per derivation.
func (c *ctrState) keystream(block cipher.Block, session uint32, dst []byte) {
	c.ctr = [aes.BlockSize]byte{byte(session >> 24), byte(session >> 16), byte(session >> 8), byte(session)}
	for off := 0; off < len(dst); off += aes.BlockSize {
		block.Encrypt(c.ks[:], c.ctr[:])
		copy(dst[off:], c.ks[:])
		for i := aes.BlockSize - 1; i >= 0; i-- {
			c.ctr[i]++
			if c.ctr[i] != 0 {
				break
			}
		}
	}
}

// setFromKeystream (re)derives the polarity sequence and every cached
// template form from a pseudorandom keystream, reusing the existing
// backing arrays when they are large enough so repeated derivations in
// a session scratch allocate nothing. Pulse i takes bit i%8 of byte
// i/8: set is +1, clear is −1. Whole bytes derive 8 pulses at a time
// without branching on the (random) bits.
func (s *STS) setFromKeystream(ks []byte, pulses int) {
	if cap(s.Polarity) < pulses {
		s.Polarity = make([]int8, pulses)
		s.template = make([]float64, pulses)
	} else {
		s.Polarity = s.Polarity[:pulses]
		s.template = s.template[:pulses]
	}
	pol, tpl := s.Polarity, s.template
	for k, b := range ks[:pulses/8] {
		p, t := (*[8]int8)(pol[8*k:]), (*[8]float64)(tpl[8*k:])
		for j := range p {
			v := int8(b>>j&1)<<1 - 1
			p[j], t[j] = v, float64(v)
		}
	}
	for i := pulses &^ 7; i < pulses; i++ {
		v := int8(ks[i/8]>>(i%8)&1)<<1 - 1
		pol[i], tpl[i] = v, float64(v)
	}
}

// Waveform renders the STS as a baseband signal: one unit-amplitude
// pulse of the given polarity every ChipSpacing samples.
func (s *STS) Waveform() Signal {
	return s.waveformInto(nil)
}

// waveformInto renders the waveform into dst when it has the right
// capacity, allocating only on first use of a scratch buffer.
func (s *STS) waveformInto(dst Signal) Signal {
	sig := sliceFor(dst, len(s.Polarity)*ChipSpacing)
	for i, p := range s.Polarity {
		sig[i*ChipSpacing] = float64(p)
	}
	return sig
}

// Tap is one multipath component: a delayed, attenuated copy of the
// transmitted signal.
type Tap struct {
	DelaySamples int
	Gain         float64
}

// Channel models one-way propagation: a line-of-sight delay determined
// by distance, optional multipath taps (relative to the LoS path), and
// additive white Gaussian noise.
type Channel struct {
	DistanceM float64 // true transmitter–receiver distance in metres
	LoSGain   float64 // line-of-sight amplitude gain (default 1.0)
	Taps      []Tap   // multipath, delays relative to LoS arrival
	NoiseStd  float64 // AWGN standard deviation per sample
}

// DelaySamples returns the LoS propagation delay on the sample grid.
func (c *Channel) DelaySamples() int {
	return int(c.DistanceM/MetresPerSample + 0.5)
}

// Propagate applies the channel to tx and returns what the receiver
// observes in a window of length obsLen samples. The RNG supplies the
// noise so runs are reproducible.
func (c *Channel) Propagate(tx Signal, obsLen int, rng *sim.RNG) Signal {
	rx := make(Signal, obsLen)
	c.propagate(rx, tx, nil, rng)
	return rx
}

// propagate applies the channel to tx over the zeroed window rx,
// bit-identically to the original dense model (propagateRef, kept in
// equiv_test.go as the reference): the taps land in the same order and
// the noise stream is drawn in the same per-sample order. When chips is
// non-nil, tx must be chips' waveform, and each tap with a finite gain
// adds only the chip samples: the others are +0, and adding g·(+0) = ±0
// leaves every sample unchanged because rx holds no −0 while taps land
// (it starts at +0, and under round-to-nearest a sum is −0 only when
// both addends are). A non-finite gain makes g·0 a NaN, so such a tap
// takes the dense loop.
func (c *Channel) propagate(rx, tx Signal, chips *STS, rng *sim.RNG) {
	gain := c.LoSGain
	if gain == 0 {
		gain = 1.0
	}
	base := c.DelaySamples()
	place := func(delay int, g float64) {
		if chips == nil || !(math.Abs(g) <= math.MaxFloat64) {
			for i, v := range tx {
				if idx := delay + i; idx >= 0 && idx < len(rx) {
					rx[idx] += g * v
				}
			}
			return
		}
		for i, v := range chips.Template() {
			if idx := delay + i*ChipSpacing; idx >= 0 && idx < len(rx) {
				rx[idx] += g * v
			}
		}
	}
	place(base, gain)
	for _, tap := range c.Taps {
		place(base+tap.DelaySamples, tap.Gain)
	}
	if c.NoiseStd > 0 {
		// Bulk noise: NormFill draws the identical stream a per-sample
		// NormFloat64 loop would (the equivalence tests pin this against
		// the reference), in stack-sized chunks so the whole AWGN pass
		// stays allocation-free. The add runs four samples per step.
		std := c.NoiseStd
		var chunk [256]float64
		for off := 0; off < len(rx); off += len(chunk) {
			r := rx[off:min(off+len(chunk), len(rx))]
			z := chunk[:len(r)]
			rng.NormFill(z)
			i := 0
			for ; i+4 <= len(r); i += 4 {
				r4, z4 := r[i:i+4:i+4], z[i:i+4:i+4]
				r4[0] += std * z4[0]
				r4[1] += std * z4[1]
				r4[2] += std * z4[2]
				r4[3] += std * z4[3]
			}
			for ; i < len(r); i++ {
				r[i] += std * z[i]
			}
		}
	}
}

// sliceFor returns a zeroed slice of length n, reusing buf's backing
// array when it is large enough.
func sliceFor(buf Signal, n int) Signal {
	if cap(buf) < n {
		return make(Signal, n)
	}
	s := buf[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// SamplesToMetres converts a ToA expressed in samples to one-way
// distance in metres.
func SamplesToMetres(samples int) float64 {
	return float64(samples) * MetresPerSample
}

// MetresToSamples converts a one-way distance to the sample grid.
func MetresToSamples(m float64) int {
	return int(m/MetresPerSample + 0.5)
}
