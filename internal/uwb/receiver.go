package uwb

import (
	"fmt"
	"math"
	"unsafe"

	"autosec/internal/sim"
)

// Correlate computes the normalized cross-correlation of the received
// signal with the STS template at every candidate offset. Entry k is the
// correlation assuming the first STS pulse arrived at sample k, divided
// by the number of pulses, so a clean unit-gain arrival scores ~1.0.
func Correlate(rx Signal, sts *STS) []float64 {
	scr := getScratch()
	defer scratchPool.Put(scr)
	out := correlateScratch(scr, rx, sts)
	// out escapes to the caller, so the arena must not hand it out again.
	scr.corr = nil
	return out
}

// Correlator tiers, slowest first. corrTier is the host's fastest,
// set once at init from sim.HostCPU; tests lower it to pin every tier
// against correlateRef.
const (
	tierGo     = iota // 6-wide pure-Go loop: arm64, wasm, pre-AVX2 amd64, purego
	tierAVX2          // corrBlock32
	tierAVX512        // corrBlock64, then corrBlock32 below 64 windows
)

var corrTier = hostCorrTier()

func hostCorrTier() int {
	switch cpu := sim.HostCPU(); {
	case cpu.AVX512:
		return tierAVX512
	case cpu.AVX2:
		return tierAVX2
	}
	return tierGo
}

// maxPlanarLen is the longest observation the two-plane correlator
// takes: plane offsets are packed as uint32 and reach ~16·len(rx) bytes.
const maxPlanarLen = math.MaxUint32 / 32

// planeStride is the distance, in floats, from the positive plane of a
// length-n observation to its negated plane: the first 64-byte line
// boundary at or after n, so the negated plane's taps are line-aligned
// whenever the positive plane's are.
func planeStride(n int) int { return (n + 7) &^ 7 }

// correlateScratch is Correlate into the arena's buffers; the result
// aliases scr.corr. The computation is restructured for the cache and
// the pipeline while staying bit-identical to correlateRef:
//
//   - rx sits in a two-plane buffer dec = [rx | −rx] (the second plane
//     starting at the cache line after rx), so the ±1 template multiply
//     becomes an offset-addressed add (negation is exact, so s += (−v)
//     equals s += (−1)·v bit for bit). Measure propagates rx straight
//     into the positive plane, so only the negated plane is written
//     here; any other rx is first copied in;
//   - the template is flattened per call into packed byte offsets that
//     already select the plane (64i for +1, 64i plus the plane distance
//     for −1), making the inner loop one load and one add per pulse per
//     window;
//   - adjacent output offsets are adjacent floats of rx, so blocks of
//     windows accumulate together: 64 at a time in the AVX-512 kernel,
//     32 in the AVX2 one (each vector lane owns one window), else
//     6-wide in pure Go, then one at a time — independent add chains
//     hide FP latency and each template offset loaded once serves the
//     whole block.
//
// Each output's summation order — template index ascending, then one
// division — is exactly the reference order, so every float rounds
// identically: vector lanes never combine across windows.
//
// On return the planes and scr.pack describe rx, for consistencyAt,
// unless rx is longer than maxPlanarLen: then the reference correlator
// runs and the planes are untouched.
func correlateScratch(scr *scratch, rx Signal, sts *STS) []float64 {
	pol := sts.Polarity
	n := len(pol)
	nWindows := len(rx) - (n-1)*ChipSpacing
	if nWindows <= 0 {
		return nil
	}
	if len(rx) > maxPlanarLen {
		return correlateRef(rx, sts)
	}
	scr.corr = floatsFor(scr.corr, nWindows)
	stride := planeStride(len(rx))
	scr.dec = floatsFor(scr.dec, 2*stride)
	scr.pack = u64For(scr.pack, n/2)
	out, dec, pack := scr.corr, scr.dec, scr.pack
	pos, neg := dec[:len(rx)], dec[stride:stride+len(rx)]
	if &pos[0] != &rx[0] {
		copy(pos, rx)
	}
	// Four negations per step run about twice as fast as one.
	j := 0
	for ; j+4 <= len(pos); j += 4 {
		p, q := pos[j:j+4:j+4], neg[j:j+4:j+4]
		q[0], q[1], q[2], q[3] = -p[0], -p[1], -p[2], -p[3]
	}
	for ; j < len(pos); j++ {
		neg[j] = -pos[j]
	}
	// Flatten the template into plane-selecting byte offsets, two per
	// word so one 64-bit load feeds two template steps. The offsets are
	// per call because the negated plane sits 8·stride bytes above the
	// positive one.
	delta := uint32(8 * stride)
	for k := range pack {
		a := uint32(8 * ChipSpacing * 2 * k)
		if pol[2*k] < 0 {
			a += delta
		}
		b := uint32(8 * ChipSpacing * (2*k + 1))
		if pol[2*k+1] < 0 {
			b += delta
		}
		pack[k] = uint64(a) | uint64(b)<<32
	}
	var tailOff uintptr
	if n&1 != 0 {
		o := uint32(8 * ChipSpacing * (n - 1))
		if pol[n-1] < 0 {
			o += delta
		}
		tailOff = uintptr(o)
	}
	scr.tailOff, scr.pulses = tailOff, n
	// Window k reads plane byte offsets pack[·] from base &dec[k]. The
	// furthest float touched is k + ChipSpacing·(n−1) in a plane, which
	// is < len(rx) for every k < nWindows (the last output's last tap
	// lies inside rx), so every access below stays inside dec. Direct
	// pointer loads give the bounds-check-free form of dec[k+8i] that
	// the range prover cannot reach for data-dependent indices.
	pBase := unsafe.Pointer(&dec[0])
	// The final vector block starts at nWindows minus its width,
	// overlapping the one before it: its windows are < nWindows like
	// every other block's, and a window computed twice gets the same
	// bits both times, so no scalar tail is needed.
	if corrTier >= tierAVX512 && nWindows >= 64 {
		for k := 0; k < nWindows; k += 64 {
			k = min(k, nWindows-64)
			corrBlock64(unsafe.Add(pBase, 8*k), pack, tailOff, n, (*[64]float64)(out[k:]))
		}
		return out
	}
	if corrTier >= tierAVX2 && nWindows >= 32 {
		for k := 0; k < nWindows; k += 32 {
			k = min(k, nWindows-32)
			corrBlock32(unsafe.Add(pBase, 8*k), pack, tailOff, n, (*[32]float64)(out[k:]))
		}
		return out
	}
	nf := float64(n)
	// When n is a power of two its reciprocal is exact, and scaling by
	// it rounds identically to dividing by nf (both produce the same
	// real value), so the cheaper multiply stays bit-identical. For any
	// other n the code divides, as the reference does.
	inv, haveInv := 0.0, false
	if n&(n-1) == 0 {
		inv, haveInv = 1.0/nf, true
	}
	k := 0
	for ; k+6 <= nWindows; k += 6 {
		p := unsafe.Add(pBase, 8*k)
		var s0, s1, s2, s3, s4, s5 float64
		// Two template steps per iteration from one packed 64-bit
		// load; each chain still adds its terms in ascending template
		// order, so rounding is unchanged.
		for _, pk := range pack {
			offA := uintptr(uint32(pk))
			offB := uintptr(pk >> 32)
			s0 += *(*float64)(unsafe.Add(p, offA))
			s0 += *(*float64)(unsafe.Add(p, offB))
			s1 += *(*float64)(unsafe.Add(p, offA+8))
			s1 += *(*float64)(unsafe.Add(p, offB+8))
			s2 += *(*float64)(unsafe.Add(p, offA+16))
			s2 += *(*float64)(unsafe.Add(p, offB+16))
			s3 += *(*float64)(unsafe.Add(p, offA+24))
			s3 += *(*float64)(unsafe.Add(p, offB+24))
			s4 += *(*float64)(unsafe.Add(p, offA+32))
			s4 += *(*float64)(unsafe.Add(p, offB+32))
			s5 += *(*float64)(unsafe.Add(p, offA+40))
			s5 += *(*float64)(unsafe.Add(p, offB+40))
		}
		if n&1 != 0 {
			s0 += *(*float64)(unsafe.Add(p, tailOff))
			s1 += *(*float64)(unsafe.Add(p, tailOff+8))
			s2 += *(*float64)(unsafe.Add(p, tailOff+16))
			s3 += *(*float64)(unsafe.Add(p, tailOff+24))
			s4 += *(*float64)(unsafe.Add(p, tailOff+32))
			s5 += *(*float64)(unsafe.Add(p, tailOff+40))
		}
		o := out[k : k+6]
		if haveInv {
			o[0], o[1], o[2], o[3], o[4], o[5] = s0*inv, s1*inv, s2*inv, s3*inv, s4*inv, s5*inv
		} else {
			o[0], o[1], o[2], o[3], o[4], o[5] = s0/nf, s1/nf, s2/nf, s3/nf, s4/nf, s5/nf
		}
	}
	for ; k < nWindows; k++ {
		p := unsafe.Add(pBase, 8*k)
		var sum float64
		for _, pk := range pack {
			sum += *(*float64)(unsafe.Add(p, uintptr(uint32(pk))))
			sum += *(*float64)(unsafe.Add(p, uintptr(pk>>32)))
		}
		if n&1 != 0 {
			sum += *(*float64)(unsafe.Add(p, tailOff))
		}
		if haveInv {
			out[k] = sum * inv
		} else {
			out[k] = sum / nf
		}
	}
	return out
}

// correlateRef is the original correlator, kept verbatim as the
// reference implementation the property tests pin correlateScratch
// against bit-for-bit.
func correlateRef(rx Signal, sts *STS) []float64 {
	n := len(sts.Polarity)
	nWindows := len(rx) - (n-1)*ChipSpacing
	if nWindows <= 0 {
		return nil
	}
	out := make([]float64, nWindows)
	for k := 0; k < nWindows; k++ {
		sum := 0.0
		for i, p := range sts.Polarity {
			sum += float64(p) * rx[k+i*ChipSpacing]
		}
		out[k] = sum / float64(n)
	}
	return out
}

// ToAResult is the outcome of a time-of-arrival estimation.
type ToAResult struct {
	// Sample is the estimated arrival sample of the first STS pulse.
	Sample int
	// Peak is the normalized correlation value at Sample.
	Peak float64
	// Accepted reports whether the receiver's integrity checks (if
	// any) passed. A naive receiver always accepts.
	Accepted bool
	// Reason is empty when Accepted, otherwise a short diagnosis.
	Reason string
}

// naiveToA implements the insecure first-path search the paper warns
// about: it finds the global correlation maximum, then walks backwards
// without bound accepting any earlier sample whose correlation exceeds
// threshold·peak as the "first path". An attacker who injects even a
// modest ghost peak in front of the legitimate arrival shortens the
// measured distance. It performs no validity check on the result.
func naiveToA(scr *scratch, rx Signal, sts *STS, threshold float64) ToAResult {
	corr := correlateScratch(scr, rx, sts)
	if len(corr) == 0 {
		return ToAResult{Sample: -1}
	}
	peakIdx, peakVal := argmaxAbs(corr)
	first := peakIdx
	for k := 0; k < peakIdx; k++ {
		if math.Abs(corr[k]) >= threshold*math.Abs(peakVal) {
			first = k
			break
		}
	}
	return ToAResult{Sample: first, Peak: corr[first], Accepted: true}
}

// SecureConfig parametrizes the integrity-checked receiver.
type SecureConfig struct {
	// BackSearchWindow bounds, in samples, how far before the strongest
	// path the receiver will accept an earlier "first path". 802.15.4z
	// implementations bound this window to the channel's plausible
	// excess delay (a few ns) precisely to defeat ghost peaks far in
	// front of the real signal.
	BackSearchWindow int
	// FirstPathThreshold is the fraction of the main peak an earlier
	// sample must reach to be considered a first path.
	FirstPathThreshold float64
	// MinPeak is the minimum normalized correlation for a detection to
	// be considered a signal at all.
	MinPeak float64
	// MinConsistency is the minimum per-pulse polarity agreement rate
	// at the chosen ToA (the STS consistency check): for each pulse,
	// the sign of the received sample must match the expected STS
	// polarity. A true arrival agrees on nearly all pulses; a random
	// ghost peak agrees on about half.
	MinConsistency float64
	// EnlargementGuard, when true, enables the UWB-ED-style energy test
	// for distance enlargement: the region before the accepted first
	// path must contain only channel noise. A jam-and-replay attacker
	// necessarily deposits jamming energy (or leaves the intact
	// legitimate signal) in that region.
	EnlargementGuard bool
	// ExpectedNoiseStd is the receiver's calibrated noise floor used by
	// the enlargement guard; 0 lets the caller (Session) fill it from
	// the channel model, as a real receiver's AGC/noise estimator does.
	ExpectedNoiseStd float64
}

// DefaultSecureConfig returns the configuration used by the paper
// experiments: a 16-sample (8 ns) back-search window, 40% first-path
// threshold, 0.25 minimum peak, 85% STS consistency, enlargement guard
// on.
func DefaultSecureConfig() SecureConfig {
	return SecureConfig{
		BackSearchWindow:   16,
		FirstPathThreshold: 0.4,
		MinPeak:            0.25,
		MinConsistency:     0.85,
		EnlargementGuard:   true,
	}
}

// secureToA implements the integrity-checked receiver of §II-A: bounded
// back-search, STS polarity consistency at the candidate ToA, and an
// optional early-energy test against enlargement. It returns the chosen
// sample plus whether the measurement should be trusted.
func secureToA(scr *scratch, rx Signal, sts *STS, cfg SecureConfig) ToAResult {
	corr := correlateScratch(scr, rx, sts)
	if len(corr) == 0 {
		return ToAResult{Sample: -1, Reason: "observation too short"}
	}
	// The checks below read rx from the correlator's positive plane,
	// which holds rx's exact values (an rx that aliased the arena
	// elsewhere may now overlap the negated plane), and take STS
	// consistency from the planes.
	planar := len(rx) <= maxPlanarLen
	if planar {
		rx = scr.dec[:len(rx):len(rx)]
	}
	consistency := func(k int) float64 {
		if planar {
			return consistencyAt(scr, k)
		}
		return Consistency(rx, sts, k)
	}
	peakIdx, peakVal := argmaxAbs(corr)
	if math.Abs(peakVal) < cfg.MinPeak {
		return ToAResult{Sample: peakIdx, Peak: peakVal, Reason: "no signal: peak below floor"}
	}

	// Bounded back-search for the true first path (multipath earliest
	// arrival), never beyond the plausibility window.
	first := peakIdx
	start := peakIdx - cfg.BackSearchWindow
	if start < 0 {
		start = 0
	}
	for k := start; k < peakIdx; k++ {
		if math.Abs(corr[k]) >= cfg.FirstPathThreshold*math.Abs(peakVal) {
			first = k
			break
		}
	}

	// STS consistency: per-pulse sign agreement at the chosen ToA.
	agree := consistency(first)
	if agree < cfg.MinConsistency {
		return ToAResult{Sample: first, Peak: corr[first], Reason: fmt.Sprintf("sts consistency %.2f < %.2f", agree, cfg.MinConsistency)}
	}

	if cfg.EnlargementGuard {
		// Enlargement test (UWB-ED, ref [13]): the samples preceding
		// the accepted first path — up to one STS span back, minus the
		// multipath window — must look like channel noise. A
		// jam-and-replay enlargement attacker deposits jamming energy
		// there (it must mask the true arrival), and an overshadow
		// attacker leaves the intact legitimate signal there; both
		// raise the RMS well above the calibrated floor. The threshold
		// is absolute: scaling it with received power would let a
		// high-gain replay mask its own evidence.
		span := len(sts.Polarity) * ChipSpacing
		gStart := first - span
		if gStart < 0 {
			gStart = 0
		}
		gEnd := first - cfg.BackSearchWindow
		if n := gEnd - gStart; n >= 64 {
			rms := math.Sqrt(rx.Energy(gStart, gEnd) / float64(n))
			floor := cfg.ExpectedNoiseStd
			if floor <= 0 {
				floor = 0.25
			}
			if rms > 1.5*floor {
				return ToAResult{Sample: first, Peak: corr[first], Reason: fmt.Sprintf("pre-path energy rms %.3f over noise floor %.3f: enlargement suspected", rms, floor)}
			}
		}
		// Coherent early-energy check: an intact (unjammed) early
		// arrival also betrays itself by agreeing with the STS polarity
		// sequence far above the 50% a sidelobe or noise achieves.
		for k := 0; k < gEnd; k++ {
			if math.Abs(corr[k]) < 0.08 {
				continue // nothing resembling coherent energy
			}
			if consistency(k) >= 0.70 {
				return ToAResult{Sample: first, Peak: corr[first], Reason: fmt.Sprintf("coherent early energy at sample %d: enlargement suspected", k)}
			}
		}
	}

	return ToAResult{Sample: first, Peak: corr[first], Accepted: true}
}

// Consistency returns the fraction of STS pulses whose received sample
// sign matches the expected polarity assuming the first pulse arrived at
// sample toa. Pulses whose sample lies outside rx count as disagreement.
func Consistency(rx Signal, sts *STS, toa int) float64 {
	if toa < 0 {
		return 0
	}
	agree := 0
	idx := toa
	for _, p := range sts.Template() {
		// Pulse positions only grow, so the first out-of-range pulse
		// ends the scan; the remainder count as disagreement, exactly
		// as the per-pulse bounds check did.
		if idx >= len(rx) {
			break
		}
		v := rx[idx]
		// v·p > 0 holds exactly when the signs agree and v is neither
		// zero nor NaN (p is exactly ±1, so the product cannot round),
		// i.e. the same predicate as (v>0 && p>0) || (v<0 && p<0) — but
		// it compiles to a single ordered compare feeding a flag-set
		// instead of two data-dependent branches, which matters because
		// sample signs are a coin flip at non-arrival offsets and defeat
		// the branch predictor.
		inc := 0
		if v*p > 0 {
			inc = 1
		}
		agree += inc
		idx += ChipSpacing
	}
	return float64(agree) / float64(len(sts.Polarity))
}

// consistencyAt is Consistency(rx, sts, k) read from the planes and
// template offsets correlateScratch left in scr for rx and sts, for a
// window k < len(corr), whose pulses all lie inside rx. The tap a
// packed offset selects holds p·v for pulse polarity p and sample v,
// exactly (negation is exact), so the tap is > 0 exactly when v·p > 0,
// Consistency's predicate, including for ±0 and NaN samples.
func consistencyAt(scr *scratch, k int) float64 {
	p := unsafe.Pointer(&scr.dec[k])
	agree := 0
	for _, pk := range scr.pack {
		a, b := 0, 0
		if *(*float64)(unsafe.Add(p, uintptr(uint32(pk)))) > 0 {
			a = 1
		}
		if *(*float64)(unsafe.Add(p, uintptr(pk>>32))) > 0 {
			b = 1
		}
		agree += a + b
	}
	if scr.pulses&1 != 0 && *(*float64)(unsafe.Add(p, scr.tailOff)) > 0 {
		agree++
	}
	return float64(agree) / float64(scr.pulses)
}

// argmaxAbs returns the first index of v's largest magnitude and the
// value there, or (0, 0) when no element beats zero (NaNs never win).
// Four interleaved lanes each keep their own first maximum; merging
// them by magnitude, ties to the smaller index, and then scanning the
// tail gives exactly the sequential scan's answer.
func argmaxAbs(v []float64) (int, float64) {
	var b0, b1, b2, b3 float64
	i0, i1, i2, i3 := -1, -1, -1, -1
	i := 0
	for ; i+4 <= len(v); i += 4 {
		w := v[i : i+4 : i+4]
		if a := math.Abs(w[0]); a > b0 {
			b0, i0 = a, i
		}
		if a := math.Abs(w[1]); a > b1 {
			b1, i1 = a, i+1
		}
		if a := math.Abs(w[2]); a > b2 {
			b2, i2 = a, i+2
		}
		if a := math.Abs(w[3]); a > b3 {
			b3, i3 = a, i+3
		}
	}
	best, bestAbs := i0, b0
	for _, l := range [...]struct {
		abs float64
		idx int
	}{{b1, i1}, {b2, i2}, {b3, i3}} {
		if l.abs > bestAbs || (l.abs == bestAbs && l.idx < best) {
			best, bestAbs = l.idx, l.abs
		}
	}
	for ; i < len(v); i++ {
		if a := math.Abs(v[i]); a > bestAbs {
			best, bestAbs = i, a
		}
	}
	if best < 0 {
		return 0, 0
	}
	return best, v[best]
}
