package uwb

import (
	"autosec/internal/sim"
)

// Attacker mutates the signal a receiver observes. Implementations model
// the physical-layer adversaries of §II: distance reduction via ghost
// peaks, and distance enlargement via annihilation/overshadowing.
type Attacker interface {
	// Name identifies the attack in reports.
	Name() string
	// Inject alters rx in place (or returns a replacement). legitToA is
	// the sample at which the legitimate first path arrives — physical
	// attackers observe the channel, so they know this. tx is the
	// legitimate transmitted waveform (known shape, unknown polarity
	// content for STS unless the attacker holds the key). rx and tx
	// are measurement scratch: they must not be retained after Inject
	// returns.
	Inject(rx Signal, tx Signal, legitToA int, rng *sim.RNG) Signal
}

// GhostPeakAttacker models the HRP distance-reduction attack (Cicada /
// ghost peak, paper refs [4], [8]): the attacker cannot predict the
// pseudorandom STS, so it blindly injects its own high-power
// random-polarity pulse train AdvanceSamples earlier than the legitimate
// arrival. The random train correlates with the template as a random
// walk; with enough power the excursion forms an earlier "first path"
// that a naive unbounded back-search accepts.
type GhostPeakAttacker struct {
	AdvanceSamples int     // how much earlier than the legitimate path
	Power          float64 // amplitude of injected pulses (legit = 1.0)
}

func (a *GhostPeakAttacker) Name() string { return "ghost-peak" }

func (a *GhostPeakAttacker) Inject(rx Signal, tx Signal, legitToA int, rng *sim.RNG) Signal {
	start := legitToA - a.AdvanceSamples
	if start < 0 {
		start = 0
	}
	// Random polarity pulses on the same chip grid as the template so
	// they line up with correlation taps.
	n := len(tx) / ChipSpacing
	for i := 0; i < n; i++ {
		idx := start + i*ChipSpacing
		if idx >= len(rx) {
			break
		}
		s := 1.0
		if rng.Bool(0.5) {
			s = -1.0
		}
		rx[idx] += a.Power * s
	}
	return rx
}

// JamReplayAttacker models distance enlargement (paper refs [13], [14])
// the way it is practically mounted: phase-accurate signal annihilation
// is considered infeasible over the air, so the attacker *jams* the
// legitimate arrival window with high-power noise to keep the receiver
// from locking onto it, and replays the recorded waveform DelaySamples
// later so the measured distance grows. This is exactly the adversary
// UWB-ED (ref [13]) detects via energy analysis of the pre-path region.
type JamReplayAttacker struct {
	DelaySamples int     // extra delay of the replayed copy
	JamStd       float64 // std-dev of jamming noise over the legit window
	ReplayGain   float64 // amplitude of the delayed replay
}

func (a *JamReplayAttacker) Name() string { return "jam-replay" }

func (a *JamReplayAttacker) Inject(rx Signal, tx Signal, legitToA int, rng *sim.RNG) Signal {
	// Bury the legitimate arrival under jamming noise. Draws happen only
	// for in-range samples (idx rises monotonically), so filling in bulk
	// over exactly that prefix consumes the identical RNG stream.
	m := len(tx)
	if rem := len(rx) - legitToA; rem < m {
		m = rem
	}
	if m > 0 {
		std := a.JamStd
		var chunk [256]float64
		for off := 0; off < m; off += len(chunk) {
			c := m - off
			if c > len(chunk) {
				c = len(chunk)
			}
			rng.NormFill(chunk[:c])
			for i, v := range chunk[:c] {
				rx[legitToA+off+i] += std * v
			}
		}
	}
	// Replay the recorded waveform later and stronger. A record-and-
	// replay attacker reproduces the true STS content, just shifted.
	for i, v := range tx {
		idx := legitToA + a.DelaySamples + i
		if idx < len(rx) {
			rx[idx] += a.ReplayGain * v
		}
	}
	return rx
}

// OvershadowAttacker models the simpler enlargement variant: without
// cancelling anything, it replays the recorded signal later at much
// higher power so that a receiver keyed on the strongest path locks onto
// the late copy.
type OvershadowAttacker struct {
	DelaySamples int
	ReplayGain   float64
}

func (a *OvershadowAttacker) Name() string { return "overshadow" }

func (a *OvershadowAttacker) Inject(rx Signal, tx Signal, legitToA int, rng *sim.RNG) Signal {
	for i, v := range tx {
		idx := legitToA + a.DelaySamples + i
		if idx < len(rx) {
			rx[idx] += a.ReplayGain * v
		}
	}
	return rx
}

// Measurement is the outcome of one simulated one-way ranging
// observation.
type Measurement struct {
	TrueDistanceM     float64
	MeasuredDistanceM float64
	Accepted          bool
	Reason            string
}

// ErrorM returns the signed ranging error (measured − true) in metres;
// negative means distance reduction.
func (m Measurement) ErrorM() float64 { return m.MeasuredDistanceM - m.TrueDistanceM }

// Session bundles the parameters of a ranging observation so experiments
// can sweep them. Measure borrows its buffers from a package-wide arena
// pool for the duration of the call, so sweeps that mutate the public
// fields between measurements (fresh session counters, different pulse
// counts) and fresh Sessions per encounter run allocation-free once the
// pool is warm.
type Session struct {
	Key     []byte // STS key shared by the legitimate pair
	Session uint32 // STS session counter (fresh per measurement)
	Pulses  int    // STS length
	Channel Channel
	Secure  bool         // integrity-checked receiver vs naive
	Config  SecureConfig // used when Secure
	// NaiveThreshold is the first-path threshold of the naive receiver.
	NaiveThreshold float64
}

// Measure runs one observation: derive the STS, transmit it through the
// channel, let the attacker (nil for benign) tamper with the air, then
// estimate ToA with the configured receiver. It is one pass over one
// arena: the STS is derived into it, the channel writes the
// observation into the correlator's positive plane, and the receiver's
// consistency checks read the correlator's planes.
func (s *Session) Measure(att Attacker, rng *sim.RNG) (Measurement, error) {
	scr := getScratch()
	defer scratchPool.Put(scr)
	sts, err := scr.stsFor(s.Key, s.Session, s.Pulses)
	if err != nil {
		return Measurement{}, err
	}
	tx := sts.waveformInto(scr.waveform)
	scr.waveform = tx
	// The observation lives in the positive plane of the arena's
	// two-plane buffer, so the correlator need not copy it there. Its
	// capacity ends at obsLen: an attacker that appends reallocates
	// rather than writing into the other plane.
	obsLen := s.Channel.DelaySamples() + len(tx) + 512
	scr.dec = floatsFor(scr.dec, 2*planeStride(obsLen))
	rx := scr.dec[:obsLen:obsLen]
	clear(rx)
	s.Channel.propagate(rx, tx, sts, rng)
	legitToA := s.Channel.DelaySamples()
	if att != nil {
		rx = att.Inject(rx, tx, legitToA, rng)
	}

	var res ToAResult
	if s.Secure {
		cfg := s.Config
		if cfg.ExpectedNoiseStd == 0 {
			// A real receiver calibrates its noise floor continuously;
			// the model takes it from the channel.
			cfg.ExpectedNoiseStd = s.Channel.NoiseStd
			if cfg.ExpectedNoiseStd < 0.05 {
				cfg.ExpectedNoiseStd = 0.05
			}
		}
		res = secureToA(scr, rx, sts, cfg)
	} else {
		th := s.NaiveThreshold
		if th == 0 {
			th = 0.4
		}
		res = naiveToA(scr, rx, sts, th)
	}
	return Measurement{
		TrueDistanceM:     s.Channel.DistanceM,
		MeasuredDistanceM: SamplesToMetres(res.Sample),
		Accepted:          res.Accepted,
		Reason:            res.Reason,
	}, nil
}
