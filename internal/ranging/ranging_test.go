package ranging

import (
	"math"
	"testing"
	"testing/quick"

	"autosec/internal/sim"
)

func TestSSTWRExactWithPerfectClocks(t *testing.T) {
	cfg := TWRConfig{DistanceM: 37.5, ReplyDelayNs: 1000}
	got, err := ssTWR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-37.5) > 1e-9 {
		t.Errorf("SSTWR = %v, want 37.5", got)
	}
}

func TestSSTWRDriftErrorGrowsWithReplyDelay(t *testing.T) {
	base := TWRConfig{DistanceM: 10, ReplyDelayNs: 1000, Responder: Clock{DriftPPM: 20}}
	short, err := ssTWR(base)
	if err != nil {
		t.Fatal(err)
	}
	long := base
	long.ReplyDelayNs = 1e6 // 1 ms turnaround
	longEst, err := ssTWR(long)
	if err != nil {
		t.Fatal(err)
	}
	errShort := math.Abs(short - 10)
	errLong := math.Abs(longEst - 10)
	if errLong < 10*errShort {
		t.Errorf("drift error short=%.4f long=%.4f; long reply delay should dominate", errShort, errLong)
	}
}

func TestDSTWRCancelsDrift(t *testing.T) {
	cfg := TWRConfig{
		DistanceM:    25,
		ReplyDelayNs: 1e6,
		Initiator:    Clock{DriftPPM: 15},
		Responder:    Clock{DriftPPM: -20},
	}
	ss, err := ssTWR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DSTWR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ds-25) > math.Abs(ss-25)/10 {
		t.Errorf("DS-TWR error %.4f not ≪ SS-TWR error %.4f", math.Abs(ds-25), math.Abs(ss-25))
	}
	if math.Abs(ds-25) > 0.05 {
		t.Errorf("DS-TWR error %.4f m too large", math.Abs(ds-25))
	}
}

func TestRelayOnlyEnlargesToFDistance(t *testing.T) {
	// The PKES insight: a relay adds path delay, so ToF ranging through
	// a relay reports a *larger* distance, never a smaller one.
	f := func(extra uint16) bool {
		cfg := TWRConfig{DistanceM: 5, ReplyDelayNs: 1000, ExtraPathNs: float64(extra)}
		got, err := ssTWR(cfg)
		return err == nil && got >= 5-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTWRRejectsNegativeInputs(t *testing.T) {
	if _, err := ssTWR(TWRConfig{DistanceM: -1}); err == nil {
		t.Error("negative distance accepted")
	}
	if _, err := DSTWR(TWRConfig{DistanceM: 1, ExtraPathNs: -5}); err == nil {
		t.Error("negative relay delay accepted (faster-than-light)")
	}
}

func TestBoundingBenignAcceptsAtTrueDistance(t *testing.T) {
	rng := sim.NewRNG(1)
	cfg := BoundingConfig{Rounds: 32, TrueDistanceM: 2, MaxBitErrors: 0}
	res, err := RunBounding(cfg, NoFraud, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.BitErrors != 0 {
		t.Errorf("benign rejected: %+v", res)
	}
	if math.Abs(res.DistanceM-2) > 1e-9 {
		t.Errorf("distance %v, want 2", res.DistanceM)
	}
}

func TestBoundingMafiaGuessRarelyAccepted(t *testing.T) {
	rng := sim.NewRNG(3)
	cfg := BoundingConfig{Rounds: 32, TrueDistanceM: 500, AttackerDistanceM: 2, MaxBitErrors: 0}
	accepted := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		res, err := RunBounding(cfg, MafiaFraudGuess, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			accepted++
		}
	}
	// Theory: 2^-32 — we expect zero in 2000 trials.
	if accepted != 0 {
		t.Errorf("mafia fraud accepted %d/%d with 32 rounds", accepted, trials)
	}
}

func TestBoundingPreAskBeatsGuessButStillFails(t *testing.T) {
	rng := sim.NewRNG(5)
	cfg := BoundingConfig{Rounds: 16, TrueDistanceM: 500, AttackerDistanceM: 2, MaxBitErrors: 0}
	guessAcc, preAskAcc := 0, 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		g, err := RunBounding(cfg, MafiaFraudGuess, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.Accepted {
			guessAcc++
		}
		p, err := RunBounding(cfg, MafiaFraudPreAsk, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.Accepted {
			preAskAcc++
		}
	}
	// (3/4)^16 ≈ 1.0%, (1/2)^16 ≈ 0.0015%.
	if preAskAcc <= guessAcc {
		t.Errorf("pre-ask (%d) should beat guessing (%d)", preAskAcc, guessAcc)
	}
	if float64(preAskAcc)/trials > 0.03 {
		t.Errorf("pre-ask acceptance %.4f too high vs theory ~0.01", float64(preAskAcc)/trials)
	}
}

func TestBoundingSimulationMatchesTheory(t *testing.T) {
	rng := sim.NewRNG(7)
	cfg := BoundingConfig{Rounds: 8, TrueDistanceM: 100, AttackerDistanceM: 1, MaxBitErrors: 1}
	const trials = 20000
	acc := 0
	for i := 0; i < trials; i++ {
		res, err := RunBounding(cfg, MafiaFraudGuess, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			acc++
		}
	}
	want := FraudSuccessProbability(MafiaFraudGuess, 8, 1) // C(8,0)+C(8,1) over 2^8 = 9/256
	got := float64(acc) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("simulated acceptance %.4f vs theory %.4f", got, want)
	}
}

func TestFraudSuccessProbabilityTheory(t *testing.T) {
	if p := FraudSuccessProbability(NoFraud, 32, 0); p != 1 {
		t.Errorf("benign probability %v", p)
	}
	p := FraudSuccessProbability(MafiaFraudGuess, 8, 0)
	if math.Abs(p-1.0/256) > 1e-12 {
		t.Errorf("guess p = %v, want 1/256", p)
	}
	p = FraudSuccessProbability(MafiaFraudPreAsk, 4, 0)
	want := math.Pow(0.75, 4)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("pre-ask p = %v, want %v", p, want)
	}
	// Monotone in tolerated errors.
	if FraudSuccessProbability(MafiaFraudGuess, 16, 2) <= FraudSuccessProbability(MafiaFraudGuess, 16, 0) {
		t.Error("probability not monotone in tolerated errors")
	}
	// Decreasing in rounds.
	if FraudSuccessProbability(MafiaFraudGuess, 32, 0) >= FraudSuccessProbability(MafiaFraudGuess, 8, 0) {
		t.Error("probability not decreasing in rounds")
	}
}

func TestRunBoundingValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := RunBounding(BoundingConfig{Rounds: 0}, NoFraud, rng); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := RunBounding(BoundingConfig{Rounds: 4}, FraudStrategy(99), rng); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestFraudStrategyString(t *testing.T) {
	for s, want := range map[FraudStrategy]string{
		NoFraud: "benign", MafiaFraudGuess: "mafia-guess",
		MafiaFraudPreAsk: "mafia-preask", DistanceFraud: "distance-fraud",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

// ssTWR performs single-sided two-way ranging, the drift-sensitive
// baseline DS-TWR is compared against: the initiator measures
// the round-trip time, subtracts the responder's declared reply delay,
// and halves the remainder. Responder clock drift scales the (long)
// reply delay and is the dominant error term — the reason 802.15.4z
// deployments prefer DS-TWR.
func ssTWR(cfg TWRConfig) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	tof := cfg.DistanceM*NsPerMetre + cfg.ExtraPathNs
	trueRound := 2*tof + cfg.ReplyDelayNs
	measuredRound := cfg.Initiator.Elapsed(trueRound)
	declaredReply := cfg.Responder.Elapsed(cfg.ReplyDelayNs)
	est := (measuredRound - declaredReply) / 2
	return est / NsPerMetre, nil
}
