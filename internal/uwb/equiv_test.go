package uwb

// Equivalence tests pinning the optimised PHY hot paths bit-for-bit
// against the reference implementations they replaced. The determinism
// contract of the campaign harness (identical outputs for identical
// seeds, byte-identical golden reports) only holds if these pass with
// exact float equality — tolerance-based comparison would hide the very
// regressions they exist to catch.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"autosec/internal/sim"
)

// propagateRef is the original, always-allocating channel model, kept
// verbatim as the reference implementation the property tests pin the
// optimised path against bit-for-bit.
func (c *Channel) propagateRef(tx Signal, obsLen int, rng *sim.RNG) Signal {
	rx := make(Signal, obsLen)
	gain := c.LoSGain
	if gain == 0 {
		gain = 1.0
	}
	base := c.DelaySamples()
	place := func(delay int, g float64) {
		for i, v := range tx {
			idx := delay + i
			if idx >= 0 && idx < obsLen {
				rx[idx] += g * v
			}
		}
	}
	place(base, gain)
	for _, tap := range c.Taps {
		place(base+tap.DelaySamples, tap.Gain)
	}
	if c.NoiseStd > 0 {
		for i := range rx {
			rx[i] += c.NoiseStd * rng.NormFloat64()
		}
	}
	return rx
}

// randomSignal fills a signal with a mix of pulses and noise so the
// correlator sees both sparse and dense energy.
func randomSignal(rng *sim.RNG, n int) Signal {
	s := make(Signal, n)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			s[i] = rng.NormFloat64()
		case 1:
			s[i] = float64(rng.Intn(5) - 2)
		case 2:
			s[i] = rng.Float64()*2 - 1
		default:
			// leave zero: runs of silence exercise sign handling
		}
	}
	return s
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// tierNames names the correlator tiers in test messages.
var tierNames = [...]string{tierGo: "go", tierAVX2: "avx2", tierAVX512: "avx512"}

// tiersLogged holds the tests that have logged their tier list.
var tiersLogged = map[string]bool{}

// forEachCorrTier runs fn once per correlator tier the host has, from
// its fastest (corrTier) down to the pure-Go loop, and logs the tiers
// once per test. It lowers the package-level corrTier, so its callers
// must not run in parallel with other correlator users.
func forEachCorrTier(t testing.TB, fn func(tier string)) {
	t.Helper()
	host := corrTier
	defer func() { corrTier = host }()
	var ran []string
	for tier := host; tier >= tierGo; tier-- {
		corrTier = tier
		fn(tierNames[tier])
		ran = append(ran, tierNames[tier])
	}
	if !tiersLogged[t.Name()] {
		tiersLogged[t.Name()] = true
		t.Logf("correlator tiers run: %s", strings.Join(ran, ", "))
	}
}

// TestCorrelateMatchesReference drives both correlator tiers across
// pulse counts that hit every code path — power-of-two (reciprocal
// multiply), odd (packed-pair epilogue), non-power-of-two (divide), and
// tiny — over random signals, with and without a scratch arena. The
// scratch is reused across iterations of differing sizes so stale
// buffer contents would surface as mismatches.
func TestCorrelateMatchesReference(t *testing.T) {
	rng := sim.NewRNG(1001)
	scr := &scratch{}
	pulseCounts := []int{1, 2, 3, 5, 7, 8, 13, 16, 31, 64, 100, 255, 256}
	for iter := 0; iter < 40; iter++ {
		pulses := pulseCounts[rng.Intn(len(pulseCounts))]
		sts, err := NewSTS([]byte("0123456789abcdef"), uint32(iter), pulses)
		if err != nil {
			t.Fatal(err)
		}
		// Observation lengths from shorter-than-template (nil result)
		// through exact fit to generous slack, plus non-multiples of
		// ChipSpacing.
		span := (pulses - 1) * ChipSpacing
		obsLen := span + rng.Intn(3*ChipSpacing+5) - ChipSpacing
		if obsLen < 0 {
			obsLen = 0
		}
		rx := randomSignal(rng, obsLen)

		want := correlateRef(rx, sts)
		forEachCorrTier(t, func(tier string) {
			if got := Correlate(rx, sts); !equalBits(got, want) {
				t.Fatalf("%s tier, pulses=%d obsLen=%d: scratchless Correlate diverged from reference", tier, pulses, obsLen)
			}
			if got := correlateScratch(scr, rx, sts); !equalBits(got, want) {
				t.Fatalf("%s tier, pulses=%d obsLen=%d: scratch Correlate diverged from reference", tier, pulses, obsLen)
			}
		})
	}
}

// TestCorrelateTiersBlockEdges pins every tier at the window counts
// where the block structure changes: below one 32-window block (the
// pure-Go loop only), exactly one block, one block plus a window (the
// overlapping final block), the same around one and two 64-window
// blocks (below 64 the AVX-512 tier runs the 32-window kernel), plus
// exp-ca's shape (256 pulses, observation delay + 2048 + 512 samples).
// The pulse counts cover a
// power of two (reciprocal multiply in the Go tier), odd counts (the
// unpaired final pulse) and even non-powers of two (division).
func TestCorrelateTiersBlockEdges(t *testing.T) {
	rng := sim.NewRNG(1003)
	scr := &scratch{}
	// check compares both tiers on every prefix of rx of the given
	// lengths, through one scratch whose buffers carry stale contents
	// from the previous, differently sized call. Output k reads only
	// rx[k+8i], so the reference over a prefix is the same prefix of the
	// reference over all of rx.
	check := func(pulses int, rx Signal, obsLens []int) {
		t.Helper()
		sts, err := NewSTS([]byte("0123456789abcdef"), uint32(len(rx)), pulses)
		if err != nil {
			t.Fatal(err)
		}
		ref := correlateRef(rx, sts)
		for _, obsLen := range obsLens {
			want := ref[:obsLen-(pulses-1)*ChipSpacing]
			forEachCorrTier(t, func(tier string) {
				if got := correlateScratch(scr, rx[:obsLen], sts); !equalBits(got, want) {
					t.Fatalf("%s tier, pulses=%d obsLen=%d: correlator diverged from reference", tier, pulses, obsLen)
				}
			})
		}
	}
	for _, pulses := range []int{1, 2, 7, 12, 64, 99, 100, 255, 256} {
		span := (pulses - 1) * ChipSpacing
		var obsLens []int
		for _, nWindows := range []int{1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129} {
			obsLens = append(obsLens, span+nWindows)
		}
		check(pulses, randomSignal(rng, span+129), obsLens)
	}
	var obsLens []int
	for delay := 0; delay <= 600; delay++ {
		obsLens = append(obsLens, delay+256*ChipSpacing+512)
	}
	check(256, randomSignal(rng, 600+256*ChipSpacing+512), obsLens)
}

// TestCorrelateHandConstructedSTS covers the lazy template-derivation
// path for STS values built directly from a polarity slice (as the LRP
// preamble and several tests do) rather than via NewSTS.
func TestCorrelateHandConstructedSTS(t *testing.T) {
	rng := sim.NewRNG(1002)
	for _, pulses := range []int{1, 3, 8, 17} {
		pol := make([]int8, pulses)
		for i := range pol {
			pol[i] = int8(rng.Intn(2)*2 - 1)
		}
		sts := &STS{Polarity: pol}
		rx := randomSignal(rng, (pulses-1)*ChipSpacing+20)
		want := correlateRef(rx, sts)
		forEachCorrTier(t, func(tier string) {
			if !equalBits(Correlate(rx, sts), want) {
				t.Fatalf("%s tier, pulses=%d: hand-constructed STS diverged from reference", tier, pulses)
			}
		})
	}
}

// TestPropagateMatchesReference pins the buffer-reusing channel path to
// the allocating reference: same seed, same channel, bit-identical
// observation — including when the destination buffer carries stale
// contents from a previous, larger propagation.
func TestPropagateMatchesReference(t *testing.T) {
	seeds := sim.NewRNG(2001)
	var dst Signal
	for iter := 0; iter < 30; iter++ {
		ch := Channel{
			DistanceM: seeds.Float64() * 80,
			NoiseStd:  []float64{0, 0.05, 0.2, 1.5}[seeds.Intn(4)],
		}
		if seeds.Bool(0.5) {
			ch.LoSGain = 0.2 + seeds.Float64()
		}
		for t := seeds.Intn(3); t > 0; t-- {
			ch.Taps = append(ch.Taps, Tap{
				DelaySamples: seeds.Intn(12) - 2,
				Gain:         seeds.Float64() - 0.5,
			})
		}
		tx := randomSignal(seeds, 1+seeds.Intn(200))
		obsLen := len(tx) + seeds.Intn(300)
		seed := int64(3000 + iter)

		want := ch.propagateRef(tx, obsLen, sim.NewRNG(seed))
		got := sliceFor(dst, obsLen)
		ch.propagate(got, tx, nil, sim.NewRNG(seed))
		if !equalBits(got, want) {
			t.Fatalf("iter %d: propagate diverged from reference (obsLen=%d taps=%d noise=%v)",
				iter, obsLen, len(ch.Taps), ch.NoiseStd)
		}
		dst = got // reuse, often shrinking, next iteration
	}
}

// TestScratchSTSMatchesNewSTS pins the in-place session-scratch STS
// derivation (cached AES schedule, manual CTR keystream, reused backing
// arrays) to NewSTS across keys, sessions, and pulse counts, including
// cache-hit repeats and key changes mid-sequence.
func TestScratchSTSMatchesNewSTS(t *testing.T) {
	keys := [][]byte{
		[]byte("0123456789abcdef"),
		[]byte("fedcba9876543210"),
		bytes.Repeat([]byte{0x5a}, 16),
	}
	scr := &scratch{}
	rng := sim.NewRNG(3001)
	for iter := 0; iter < 60; iter++ {
		key := keys[rng.Intn(len(keys))]
		session := uint32(rng.Intn(40))
		pulses := []int{1, 7, 32, 129, 256, 300}[rng.Intn(6)]

		want, err := NewSTS(key, session, pulses)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scr.stsFor(key, session, pulses)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(int8Bytes(got.Polarity), int8Bytes(want.Polarity)) {
			t.Fatalf("iter %d: stsFor(key=%q, session=%d, pulses=%d) diverged from NewSTS",
				iter, key, session, pulses)
		}
		if !equalBits(got.Template(), want.Template()) {
			t.Fatalf("iter %d: cached template diverged", iter)
		}
		// Cache hit must return the same derivation.
		again, err := scr.stsFor(key, session, pulses)
		if err != nil {
			t.Fatal(err)
		}
		if again != got {
			t.Fatalf("iter %d: repeated stsFor did not hit the cache", iter)
		}
	}
	if _, err := scr.stsFor(keys[0], 1, 0); err == nil {
		t.Error("stsFor accepted zero pulses")
	}
	if _, err := scr.stsFor([]byte("short"), 1, 8); err == nil {
		t.Error("stsFor accepted an invalid key")
	}
}

// TestMeasureIndependentOfArena pins Measure's output to its inputs
// alone. Every call borrows a pooled arena that may hold another
// session's STS, key schedule and differently sized buffers; the same
// sequence of measurements must give the same results run once, run
// again after the pool has served other shapes, and run from several
// goroutines at once.
func TestMeasureIndependentOfArena(t *testing.T) {
	sessions := []Session{
		{Key: testKey, Session: 1, Pulses: 256, Channel: Channel{DistanceM: 60, NoiseStd: 0.2},
			Secure: true, Config: DefaultSecureConfig()},
		{Key: []byte("fedcba9876543210"), Session: 9, Pulses: 64, Channel: Channel{DistanceM: 5, NoiseStd: 0.1},
			NaiveThreshold: 0.3},
		{Key: testKey, Session: 2, Pulses: 31,
			Channel: Channel{DistanceM: 120, NoiseStd: 0.3, Taps: []Tap{{DelaySamples: 6, Gain: 0.5}}},
			Secure:  true, Config: DefaultSecureConfig()},
	}
	attackers := []Attacker{nil, &GhostPeakAttacker{AdvanceSamples: 200, Power: 4}}
	run := func(seed int64) ([]Measurement, error) {
		rng := sim.NewRNG(seed)
		var out []Measurement
		for i := 0; i < 12; i++ {
			s := sessions[i%len(sessions)]
			m, err := s.Measure(attackers[i%len(attackers)], rng)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
	want, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(2); err != nil {
		t.Fatal(err)
	}
	if got, _ := run(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("rerun after other measurements diverged:\n got %+v\nwant %+v", got, want)
	}
	got := make([][]Measurement, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run(1)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d diverged:\n got %+v\nwant %+v", g, got[g], want)
		}
	}
}

func int8Bytes(p []int8) []byte {
	b := make([]byte, len(p))
	for i, v := range p {
		b[i] = byte(v)
	}
	return b
}

// FuzzCorrelateEquivalence lets the fuzzer hunt for a (signal, template
// length, offset) combination where either correlator tier rounds
// differently from the reference. Any mismatch is a determinism bug.
func FuzzCorrelateEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(8), uint16(80))
	f.Add(int64(2), uint16(1), uint16(0))
	f.Add(int64(3), uint16(255), uint16(2100))
	f.Add(int64(4), uint16(256), uint16(2048))
	f.Add(int64(5), uint16(13), uint16(97))
	// Inputs reaching the 32- and 64-window block kernels, with an
	// overlapping final block.
	f.Add(int64(6), uint16(255), uint16(2600))
	f.Add(int64(7), uint16(99), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, pulses16, obsLen16 uint16) {
		pulses := int(pulses16)%512 + 1
		obsLen := int(obsLen16) % 4100
		rng := sim.NewRNG(seed)
		sts, err := NewSTS([]byte("0123456789abcdef"), uint32(seed), pulses)
		if err != nil {
			t.Fatal(err)
		}
		rx := randomSignal(rng, obsLen)
		want := correlateRef(rx, sts)
		forEachCorrTier(t, func(tier string) {
			if got := Correlate(rx, sts); !equalBits(got, want) {
				t.Fatalf("%s tier, pulses=%d obsLen=%d seed=%d: optimised correlator diverged", tier, pulses, obsLen, seed)
			}
			scr := &scratch{}
			if got := correlateScratch(scr, rx, sts); !equalBits(got, want) {
				t.Fatalf("%s tier, pulses=%d obsLen=%d seed=%d: scratch correlator diverged", tier, pulses, obsLen, seed)
			}
		})
	})
}

// measureRef is Session.Measure assembled from the reference pieces,
// the way Measure ran before it became one pass over one arena: a
// fresh STS, the dense propagateRef, correlateRef, Consistency on rx
// and a sequential argmax.
func measureRef(s *Session, att Attacker, rng *sim.RNG) (Measurement, error) {
	sts, err := NewSTS(s.Key, s.Session, s.Pulses)
	if err != nil {
		return Measurement{}, err
	}
	tx := sts.Waveform()
	obsLen := s.Channel.DelaySamples() + len(tx) + 512
	rx := s.Channel.propagateRef(tx, obsLen, rng)
	if att != nil {
		rx = att.Inject(rx, tx, s.Channel.DelaySamples(), rng)
	}
	var res ToAResult
	if s.Secure {
		cfg := s.Config
		if cfg.ExpectedNoiseStd == 0 {
			cfg.ExpectedNoiseStd = max(s.Channel.NoiseStd, 0.05)
		}
		res = secureToARef(rx, sts, cfg)
	} else {
		th := s.NaiveThreshold
		if th == 0 {
			th = 0.4
		}
		res = naiveToARef(rx, sts, th)
	}
	return Measurement{
		TrueDistanceM:     s.Channel.DistanceM,
		MeasuredDistanceM: SamplesToMetres(res.Sample),
		Accepted:          res.Accepted,
		Reason:            res.Reason,
	}, nil
}

// argmaxAbsRef is the sequential first-maximum scan argmaxAbs replaced.
func argmaxAbsRef(v []float64) (int, float64) {
	bestIdx, bestVal := 0, 0.0
	for i, x := range v {
		if math.Abs(x) > math.Abs(bestVal) {
			bestIdx, bestVal = i, x
		}
	}
	return bestIdx, bestVal
}

func naiveToARef(rx Signal, sts *STS, threshold float64) ToAResult {
	corr := correlateRef(rx, sts)
	if len(corr) == 0 {
		return ToAResult{Sample: -1}
	}
	peakIdx, peakVal := argmaxAbsRef(corr)
	first := peakIdx
	for k := 0; k < peakIdx; k++ {
		if math.Abs(corr[k]) >= threshold*math.Abs(peakVal) {
			first = k
			break
		}
	}
	return ToAResult{Sample: first, Peak: corr[first], Accepted: true}
}

func secureToARef(rx Signal, sts *STS, cfg SecureConfig) ToAResult {
	corr := correlateRef(rx, sts)
	if len(corr) == 0 {
		return ToAResult{Sample: -1, Reason: "observation too short"}
	}
	peakIdx, peakVal := argmaxAbsRef(corr)
	if math.Abs(peakVal) < cfg.MinPeak {
		return ToAResult{Sample: peakIdx, Peak: peakVal, Reason: "no signal: peak below floor"}
	}
	first := peakIdx
	for k := max(peakIdx-cfg.BackSearchWindow, 0); k < peakIdx; k++ {
		if math.Abs(corr[k]) >= cfg.FirstPathThreshold*math.Abs(peakVal) {
			first = k
			break
		}
	}
	if agree := Consistency(rx, sts, first); agree < cfg.MinConsistency {
		return ToAResult{Sample: first, Peak: corr[first], Reason: fmt.Sprintf("sts consistency %.2f < %.2f", agree, cfg.MinConsistency)}
	}
	if cfg.EnlargementGuard {
		gStart := max(first-len(sts.Polarity)*ChipSpacing, 0)
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
		for k := 0; k < gEnd; k++ {
			if math.Abs(corr[k]) < 0.08 {
				continue // a NaN correlation goes on to the check
			}
			if Consistency(rx, sts, k) >= 0.70 {
				return ToAResult{Sample: first, Peak: corr[first], Reason: fmt.Sprintf("coherent early energy at sample %d: enlargement suspected", k)}
			}
		}
	}
	return ToAResult{Sample: first, Peak: corr[first], Accepted: true}
}

// freshAttacker returns a new, longer slice instead of rx, as an
// attacker that rebuilds the air may: Measure must then correlate the
// returned slice, not its arena plane.
type freshAttacker struct{ extra int }

func (a *freshAttacker) Name() string { return "fresh" }

func (a *freshAttacker) Inject(rx, tx Signal, legitToA int, rng *sim.RNG) Signal {
	out := make(Signal, len(rx)+a.extra)
	copy(out, rx)
	for i := legitToA + 40; i < len(out); i += 3 * ChipSpacing {
		out[i] += 2 * rng.NormFloat64()
	}
	return out
}

// shiftAttacker returns rx shifted by a few samples, a subslice of the
// arena's positive plane that the negated plane can overlap.
type shiftAttacker struct{ by int }

func (a *shiftAttacker) Name() string { return "shift" }

func (a *shiftAttacker) Inject(rx, tx Signal, legitToA int, rng *sim.RNG) Signal {
	return rx[min(a.by, len(rx)):]
}

// measureAttackers are the attackers the Measure equivalence checks
// run: none, the three physical attacks, and two that return another
// slice than the arena plane they were given.
var measureAttackers = []Attacker{
	nil,
	&GhostPeakAttacker{AdvanceSamples: 200, Power: 4},
	&JamReplayAttacker{DelaySamples: 20, JamStd: 1.2, ReplayGain: 3},
	&OvershadowAttacker{DelaySamples: 15, ReplayGain: 5},
	&freshAttacker{extra: 37},
	&shiftAttacker{by: 5},
}

// measureSessions is the session grid TestMeasureMatchesReference pins:
// both receivers, multipath taps with finite and non-finite gains, and
// pulse counts that are odd, just past a power of two, and above
// exp-ca's 256.
func measureSessions() []Session {
	channels := []Channel{
		{DistanceM: 45, NoiseStd: 0.2},
		{DistanceM: 12, NoiseStd: 0.05, LoSGain: 0.7,
			Taps: []Tap{{DelaySamples: 3, Gain: 0.4}, {DelaySamples: -2, Gain: -0.3}, {DelaySamples: 9, Gain: -0}}},
		{DistanceM: 30, NoiseStd: 0.1, Taps: []Tap{{DelaySamples: 5, Gain: math.Inf(1)}}},
		{DistanceM: 30, NoiseStd: 0.1, Taps: []Tap{{DelaySamples: 4, Gain: math.Inf(-1)}, {DelaySamples: 6, Gain: 0.5}}},
		{DistanceM: 20, NoiseStd: 0.2, Taps: []Tap{{DelaySamples: 2, Gain: math.NaN()}}},
		{DistanceM: 70, LoSGain: math.NaN()},
		{DistanceM: 0, NoiseStd: 0.3},
	}
	var sessions []Session
	for _, pulses := range []int{31, 129, 300} {
		for ci, ch := range channels {
			for _, secure := range []bool{true, false} {
				sessions = append(sessions, Session{
					Key: testKey, Session: uint32(100*pulses + ci), Pulses: pulses, Channel: ch,
					Secure: secure, Config: DefaultSecureConfig(),
				})
			}
		}
	}
	return sessions
}

// TestMeasureMatchesReference pins Session.Measure to measureRef bit for
// bit on every correlator tier: the one-arena pass (propagation into
// the correlator's plane, chip-only tap placement, consistency from the
// planes, the 4-lane argmax) must not move a single measurement.
func TestMeasureMatchesReference(t *testing.T) {
	sessions := measureSessions()
	forEachCorrTier(t, func(tier string) {
		for si := range sessions {
			s := &sessions[si]
			for ai, att := range measureAttackers {
				seed := int64(1000*si + ai)
				want, werr := measureRef(s, att, sim.NewRNG(seed))
				got, gerr := s.Measure(att, sim.NewRNG(seed))
				if (werr == nil) != (gerr == nil) || got != want {
					t.Fatalf("%s tier, session %d (pulses=%d secure=%v channel=%+v), attacker %d:\n got %+v, %v\nwant %+v, %v",
						tier, si, s.Pulses, s.Secure, s.Channel, ai, got, gerr, want, werr)
				}
			}
		}
	})
}

// TestConsistencyAtMatchesConsistency checks the plane-read consistency
// against Consistency at every window, over signals holding ±0, NaN and
// ±Inf samples, for odd and even pulse counts.
func TestConsistencyAtMatchesConsistency(t *testing.T) {
	rng := sim.NewRNG(4001)
	scr := &scratch{}
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, pulses := range []int{1, 2, 7, 31, 64, 129, 256} {
		sts, err := NewSTS(testKey, uint32(pulses), pulses)
		if err != nil {
			t.Fatal(err)
		}
		rx := randomSignal(rng, (pulses-1)*ChipSpacing+200)
		for i := range rx {
			if rng.Intn(10) == 0 {
				rx[i] = special[rng.Intn(len(special))]
			}
		}
		corr := correlateScratch(scr, rx, sts)
		for k := range corr {
			want, got := Consistency(rx, sts, k), consistencyAt(scr, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pulses=%d k=%d: consistencyAt %v, Consistency %v", pulses, k, got, want)
			}
		}
	}
}

// TestArgmaxAbsMatchesSequential pins the 4-lane argmaxAbs to the
// sequential scan: ties go to the first index, NaN never wins, and a
// vector of zeros (either sign) and NaNs gives (0, +0).
func TestArgmaxAbsMatchesSequential(t *testing.T) {
	rng := sim.NewRNG(4002)
	values := []float64{0, math.Copysign(0, -1), math.NaN(), 1, -1, 0.5, -0.5, 2, -2, math.Inf(1), math.Inf(-1)}
	for iter := 0; iter < 5000; iter++ {
		v := make([]float64, rng.Intn(20))
		// Draw from a few values so ties are common; every few
		// iterations mix in continuous noise.
		pool := values[:1+rng.Intn(len(values))]
		for i := range v {
			v[i] = pool[rng.Intn(len(pool))]
			if iter%7 == 0 {
				v[i] *= rng.Float64()
			}
		}
		wi, wv := argmaxAbsRef(v)
		gi, gv := argmaxAbs(v)
		if gi != wi || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("argmaxAbs(%v) = (%d, %v), sequential scan (%d, %v)", v, gi, gv, wi, wv)
		}
	}
}

// TestMeasureNoAlloc pins exp-ca's shape, a session counter that
// advances every call, to zero allocations once the arena pool is warm:
// the STS derivation, propagation, an attacker and both receivers all
// run in the arena. (A rejected secure measurement formats its Reason,
// which allocates; the cases here are accepted.)
func TestMeasureNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under the race detector, so arenas are reallocated")
	}
	rng := sim.NewRNG(4003)
	for _, c := range []struct {
		secure bool
		att    Attacker
	}{
		{true, nil},
		{false, &JamReplayAttacker{DelaySamples: 20, JamStd: 1.2, ReplayGain: 3}},
	} {
		s := Session{Key: testKey, Pulses: 256, Channel: Channel{DistanceM: 45, NoiseStd: 0.2},
			Secure: c.secure, Config: DefaultSecureConfig()}
		allocs := testing.AllocsPerRun(100, func() {
			s.Session++
			m, err := s.Measure(c.att, rng)
			if err != nil || !m.Accepted {
				t.Fatalf("secure=%v: measurement %+v, %v", c.secure, m, err)
			}
		})
		if allocs != 0 {
			t.Errorf("secure=%v: Measure allocates %v per call, want 0", c.secure, allocs)
		}
	}
}

// FuzzMeasureEquivalence hunts for a session, channel and attacker for
// which Measure and measureRef disagree. Any mismatch is a determinism
// bug.
func FuzzMeasureEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(256), uint16(900), true, uint8(0), int16(0), float64(0))
	f.Add(int64(2), uint16(31), uint16(60), false, uint8(1), int16(3), 0.5)
	f.Add(int64(3), uint16(129), uint16(3000), true, uint8(2), int16(-4), math.Inf(1))
	f.Add(int64(4), uint16(300), uint16(10), true, uint8(3), int16(7), math.NaN())
	f.Add(int64(5), uint16(1), uint16(0), false, uint8(4), int16(1), -0.25)
	f.Add(int64(6), uint16(64), uint16(450), true, uint8(5), int16(-1), -1.0)
	f.Fuzz(func(t *testing.T, seed int64, pulses16, distDm uint16, secure bool, attSel uint8, tapDelay int16, tapGain float64) {
		s := Session{
			Key: testKey, Session: uint32(seed), Pulses: int(pulses16)%400 + 1,
			Channel: Channel{DistanceM: float64(distDm) / 10, NoiseStd: float64(seed&3) / 10,
				Taps: []Tap{{DelaySamples: int(tapDelay) % 64, Gain: tapGain}}},
			Secure: secure, Config: DefaultSecureConfig(),
		}
		att := measureAttackers[int(attSel)%len(measureAttackers)]
		forEachCorrTier(t, func(tier string) {
			want, werr := measureRef(&s, att, sim.NewRNG(seed))
			got, gerr := s.Measure(att, sim.NewRNG(seed))
			if (werr == nil) != (gerr == nil) || got != want {
				t.Fatalf("%s tier, session %+v, attacker %d:\n got %+v, %v\nwant %+v, %v", tier, s, attSel, got, gerr, want, werr)
			}
		})
	})
}
