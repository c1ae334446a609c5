package ids

import (
	"autosec/internal/canbus"
	"autosec/internal/ext"
	"autosec/internal/sim"
)

// Detector is the uniform interface registered detector constructors
// return: observe bus arrivals, freeze any learned baseline when the
// training window closes. Detectors without a training phase implement
// EndTraining as a no-op. Observe must not keep f after it returns:
// callers reuse one frame for every arrival.
type Detector interface {
	Observe(now sim.Time, f *canbus.Frame) *Alert
	EndTraining()
}

// Enroller is the optional provisioning interface a detector exposes
// when it authenticates transmitters by enrolled identity (the
// EASI-style sender identifier). Callers type-assert for it.
type Enroller interface {
	Enroll(frameID uint32, nodeID string)
	KnowNode(nodeID string)
}

// DetectorParams carries every knob any registered constructor reads;
// each constructor picks the fields it understands and ignores the
// rest, so one params struct configures the whole tap chain.
type DetectorParams struct {
	// Tolerance is the interval detector's anomaly fraction.
	Tolerance float64
	// MinSamples before a learned per-ID model is trusted.
	MinSamples int
	// MatchRadius is the sender identifier's fingerprint acceptance
	// radius; NoiseStd its analog measurement noise.
	MatchRadius float64
	NoiseStd    float64
	// RNG is the detector's random stream; only set for constructors
	// whose registration claims CapRNG, so building a detector chain
	// consumes parent-RNG forks deterministically.
	RNG *sim.RNG
}

// CapRNG marks a detector constructor that consumes DetectorParams.RNG
// — the builder forks the replicate RNG once per claiming detector and
// never otherwise, keeping the draw stream independent of how many
// RNG-free detectors sit in the chain.
const CapRNG = "rng"

// Detectors is the detector-constructor extension registry (ext kind
// "detector"). The §VIII built-ins register below; drop-in detectors
// register from their own file and become addressable by name.
var Detectors = ext.NewRegistry[func(DetectorParams) Detector]("detector")

func init() {
	Detectors.Register(ext.Meta{
		Name:        "interval",
		Description: "learned inter-arrival baseline per CAN id; flags period-halving injections",
		Paper:       "§VIII frequency/interval anomaly detection",
		Caps:        []string{ext.CapCore},
		Rank:        1,
	}, func(p DetectorParams) Detector {
		return NewIntervalDetectorWith(p.Tolerance, p.MinSamples)
	})
	Detectors.Register(ext.Meta{
		Name:        "sender-id",
		Description: "EASI-style analog-fingerprint sender identification with attribution",
		Paper:       "§VIII physical fingerprinting, ref [52]",
		Caps:        []string{ext.CapCore, CapRNG},
		Rank:        2,
	}, func(p DetectorParams) Detector {
		s := NewSenderIdentifier(p.RNG)
		s.MatchRadius = p.MatchRadius
		s.NoiseStd = p.NoiseStd
		return s
	})
	Detectors.Register(ext.Meta{
		Name:        "entropy",
		Description: "per-id payload entropy baseline; flags fuzzing and ciphertext stuffing",
		Paper:       "§VIII payload anomaly detection",
		Caps:        []string{ext.CapCore},
		Rank:        3,
	}, func(DetectorParams) Detector { return NewEntropyDetector() })
	Detectors.Register(ext.Meta{
		Name:        "busload",
		Description: "aggregate frame-rate watcher; flags sustained flooding",
		Paper:       "§VIII denial-of-service signature",
		Caps:        []string{ext.CapCore},
		Rank:        4,
	}, func(DetectorParams) Detector { return NewLoadDetector() })
}
