package uwb

import (
	"math"
	"testing"
	"testing/quick"

	"autosec/internal/sim"
)

var testKey = []byte("0123456789abcdef")

func TestNewSTSDeterministicPerSession(t *testing.T) {
	t.Parallel()
	a, err := NewSTS(testKey, 7, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSTS(testKey, 7, 256)
	for i := range a.Polarity {
		if a.Polarity[i] != b.Polarity[i] {
			t.Fatal("same key+session diverged")
		}
	}
	c, _ := NewSTS(testKey, 8, 256)
	same := true
	for i := range a.Polarity {
		if a.Polarity[i] != c.Polarity[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different sessions produced identical STS")
	}
}

func TestNewSTSBalance(t *testing.T) {
	t.Parallel()
	s, err := NewSTS(testKey, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, p := range s.Polarity {
		sum += int(p)
	}
	if sum < -300 || sum > 300 {
		t.Errorf("STS polarity imbalance %d over 4096 pulses", sum)
	}
}

func TestNewSTSErrors(t *testing.T) {
	t.Parallel()
	if _, err := NewSTS(testKey, 1, 0); err == nil {
		t.Error("zero-length STS accepted")
	}
	if _, err := NewSTS([]byte("bad"), 1, 64); err == nil {
		t.Error("bad key accepted")
	}
}

func TestCorrelatePeakAtArrival(t *testing.T) {
	t.Parallel()
	sts, _ := NewSTS(testKey, 3, 128)
	tx := sts.Waveform()
	rng := sim.NewRNG(1)
	ch := Channel{DistanceM: 30, NoiseStd: 0.1}
	rx := ch.Propagate(tx, ch.DelaySamples()+len(tx)+100, rng)
	corr := Correlate(rx, sts)
	idx, val := argmaxAbs(corr)
	if idx != ch.DelaySamples() {
		t.Errorf("peak at %d, want %d", idx, ch.DelaySamples())
	}
	if val < 0.9 {
		t.Errorf("peak value %.3f, want ~1.0", val)
	}
}

func TestChannelMultipathAddsTaps(t *testing.T) {
	t.Parallel()
	sts, _ := NewSTS(testKey, 3, 128)
	tx := sts.Waveform()
	rng := sim.NewRNG(1)
	ch := Channel{DistanceM: 10, Taps: []Tap{{DelaySamples: 6, Gain: 0.5}}}
	rx := ch.Propagate(tx, ch.DelaySamples()+len(tx)+100, rng)
	corr := Correlate(rx, sts)
	base := ch.DelaySamples()
	if corr[base] < 0.9 {
		t.Errorf("LoS peak %.3f", corr[base])
	}
	if corr[base+6] < 0.4 {
		t.Errorf("multipath tap %.3f, want ~0.5", corr[base+6])
	}
}

func TestBenignRangingAccuracy(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(42)
	for _, dist := range []float64{1, 10, 50, 150} {
		s := Session{
			Key: testKey, Session: 1, Pulses: 256,
			Channel: Channel{DistanceM: dist, NoiseStd: 0.3},
			Secure:  true, Config: DefaultSecureConfig(),
		}
		m, err := s.Measure(nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Accepted {
			t.Errorf("dist %.0f: benign measurement rejected: %s", dist, m.Reason)
		}
		if math.Abs(m.ErrorM()) > 0.5 {
			t.Errorf("dist %.0f: error %.2f m", dist, m.ErrorM())
		}
	}
}

func TestGhostPeakReducesDistanceOnNaiveReceiver(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(7)
	succ := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		s := Session{
			Key: testKey, Session: uint32(i), Pulses: 64,
			Channel: Channel{DistanceM: 60, NoiseStd: 0.2},
			Secure:  false, NaiveThreshold: 0.3,
		}
		att := &GhostPeakAttacker{AdvanceSamples: 200, Power: 4}
		m, err := s.Measure(att, rng)
		if err != nil {
			t.Fatal(err)
		}
		if m.Accepted && m.ErrorM() < -5 {
			succ++
		}
	}
	if succ < trials/3 {
		t.Errorf("ghost peak succeeded only %d/%d against naive receiver; model should make this common", succ, trials)
	}
}

func TestGhostPeakDefeatedBySecureReceiver(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(7)
	succ := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		s := Session{
			Key: testKey, Session: uint32(i), Pulses: 256,
			Channel: Channel{DistanceM: 60, NoiseStd: 0.2},
			Secure:  true, Config: DefaultSecureConfig(),
		}
		att := &GhostPeakAttacker{AdvanceSamples: 200, Power: 4}
		m, err := s.Measure(att, rng)
		if err != nil {
			t.Fatal(err)
		}
		if m.Accepted && m.ErrorM() < -5 {
			succ++
		}
	}
	if succ > trials/20 {
		t.Errorf("ghost peak distance reduction accepted %d/%d times by secure receiver", succ, trials)
	}
}

func TestOvershadowEnlargesOnNaivePeakReceiver(t *testing.T) {
	t.Parallel()
	// A receiver keyed on the strongest path follows the late replica:
	// with a relative first-path threshold, the weak legit path falls
	// below threshold of the amplified replay.
	rng := sim.NewRNG(9)
	s := Session{
		Key: testKey, Session: 2, Pulses: 256,
		Channel: Channel{DistanceM: 20, LoSGain: 0.4, NoiseStd: 0.05},
		Secure:  false, NaiveThreshold: 0.6,
	}
	att := &OvershadowAttacker{DelaySamples: 300, ReplayGain: 5}
	m, err := s.Measure(att, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.ErrorM() < 20 {
		t.Errorf("overshadow enlargement only %.1f m on naive receiver", m.ErrorM())
	}
}

func TestEnlargementGuardDetectsJamReplay(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(11)
	detected := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		s := Session{
			Key: testKey, Session: uint32(i), Pulses: 256,
			Channel: Channel{DistanceM: 20, NoiseStd: 0.1},
			Secure:  true, Config: DefaultSecureConfig(),
		}
		att := &JamReplayAttacker{DelaySamples: 300, JamStd: 1.2, ReplayGain: 3}
		m, err := s.Measure(att, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Accepted || m.ErrorM() < 5 {
			detected++
		}
	}
	if detected < trials*3/4 {
		t.Errorf("enlargement guard caught only %d/%d jam-replay attacks", detected, trials)
	}
}

func TestSecureToARejectsNoise(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(13)
	sts, _ := NewSTS(testKey, 1, 256)
	rx := make(Signal, 4096)
	for i := range rx {
		rx[i] = 0.2 * rng.NormFloat64()
	}
	res := secureToA(&scratch{}, rx, sts, DefaultSecureConfig())
	if res.Accepted {
		t.Error("pure noise accepted as a ranging signal")
	}
}

func TestConsistencyHighAtTrueToA(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(17)
	sts, _ := NewSTS(testKey, 1, 256)
	tx := sts.Waveform()
	ch := Channel{DistanceM: 15, NoiseStd: 0.2}
	rx := ch.Propagate(tx, ch.DelaySamples()+len(tx)+64, rng)
	c := Consistency(rx, sts, ch.DelaySamples())
	if c < 0.95 {
		t.Errorf("consistency at true ToA %.3f", c)
	}
	wrong := Consistency(rx, sts, ch.DelaySamples()+101)
	if wrong > 0.7 {
		t.Errorf("consistency at wrong ToA %.3f, want ~0.5", wrong)
	}
}

func TestSignalAddGrows(t *testing.T) {
	t.Parallel()
	s := Signal{1, 2}
	s = s.Add(Signal{1, 1, 1}, 4)
	if len(s) != 7 || s[4] != 1 || s[0] != 1 {
		t.Errorf("Add result %v", s)
	}
}

func TestSignalEnergyBounds(t *testing.T) {
	t.Parallel()
	s := Signal{1, 2, 3}
	if e := s.Energy(-5, 100); e != 14 {
		t.Errorf("energy %v", e)
	}
	if e := s.Energy(1, 2); e != 4 {
		t.Errorf("energy %v", e)
	}
}

func TestMetreSampleConversionRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(n uint16) bool {
		samples := int(n % 5000)
		m := SamplesToMetres(samples)
		return MetresToSamples(m) == samples
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLRPBenignExchange(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(21)
	resp := make([]byte, 8)
	rng.Bytes(resp)
	s := LRPSession{
		Channel:         Channel{DistanceM: 25, NoiseStd: 0.1},
		ResponseBits:    32,
		CommitmentCheck: true,
		MaxBitErrors:    1,
	}
	m, err := s.MeasureLRP(resp, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Accepted {
		t.Fatalf("benign LRP rejected: %s", m.Reason)
	}
	if math.Abs(m.ErrorM()) > 0.5 {
		t.Errorf("LRP error %.2f m", m.ErrorM())
	}
}

func TestLRPEDLCDefeatedByCommitment(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(23)
	succ := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		resp := make([]byte, 8)
		rng.Bytes(resp)
		s := LRPSession{
			Channel:         Channel{DistanceM: 40, NoiseStd: 0.1},
			ResponseBits:    32,
			CommitmentCheck: true,
			MaxBitErrors:    1,
		}
		att := &EDLCAttacker{AdvanceSamples: 150, Power: 3}
		m, err := s.MeasureLRP(resp, att, rng)
		if err != nil {
			t.Fatal(err)
		}
		if m.Accepted && m.ErrorM() < -5 {
			succ++
		}
	}
	if succ > 1 {
		t.Errorf("ED/LC bypassed distance commitment %d/%d times (guessing 32 bits should be hopeless)", succ, trials)
	}
}

func TestLRPEDLCSucceedsWithoutCommitment(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(25)
	succ := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		resp := make([]byte, 8)
		rng.Bytes(resp)
		s := LRPSession{
			Channel:         Channel{DistanceM: 40, NoiseStd: 0.1},
			ResponseBits:    32,
			CommitmentCheck: false,
		}
		att := &EDLCAttacker{AdvanceSamples: 150, Power: 3}
		m, err := s.MeasureLRP(resp, att, rng)
		if err != nil {
			t.Fatal(err)
		}
		if m.Accepted && m.ErrorM() < -5 {
			succ++
		}
	}
	if succ < trials*2/3 {
		t.Errorf("ED/LC without commitment check succeeded only %d/%d", succ, trials)
	}
}

func TestLRPValidation(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(1)
	s := LRPSession{Channel: Channel{DistanceM: 5}, ResponseBits: 64}
	if _, err := s.MeasureLRP([]byte{1}, nil, rng); err == nil {
		t.Error("short payload accepted")
	}
}

func TestSessionMeasureBadKey(t *testing.T) {
	t.Parallel()
	rng := sim.NewRNG(1)
	s := Session{Key: []byte("x"), Pulses: 64, Channel: Channel{DistanceM: 5}}
	if _, err := s.Measure(nil, rng); err == nil {
		t.Error("bad key accepted")
	}
}
