// Package ids implements the defence-in-depth detection layer of the
// paper's §VIII: a frequency/interval anomaly detector for CAN traffic,
// an EASI-style physical-fingerprint sender identifier (ref [52]) that
// catches masquerade frames whose analog signature does not match the
// identifier's legitimate transmitter, and a REACT-style response engine
// (ref [56]) that contains detected intrusions by isolating the
// offending node and alerting.
//
// Exercised by experiments exp-ids and ablate-ids.
package ids

import (
	"crypto/sha256"
	"math"

	"autosec/internal/canbus"
	"autosec/internal/sim"
)

// Alert is one detection event.
type Alert struct {
	At       sim.Time
	Detector string
	FrameID  uint32
	// Source is the physical-fingerprint attribution ("" if the
	// detector cannot attribute).
	Source string
}

// IntervalDetector learns the inter-arrival statistics of periodic CAN
// identifiers and flags bursts that violate them — the classic
// injection signature (a masquerader adds frames on top of the victim's
// own periodic transmission, halving the observed interval).
type IntervalDetector struct {
	// Tolerance is the fraction of the learned interval below which an
	// arrival is anomalous (0.5 = arrival at <50% of the period).
	Tolerance float64
	// MinSamples before an ID's model is trusted.
	MinSamples int

	learned  map[uint32]*arrivalModel
	training bool
}

type arrivalModel struct {
	last  sim.Time
	mean  float64
	count int
}

// NewIntervalDetector returns a detector in training mode.
func NewIntervalDetector() *IntervalDetector {
	return NewIntervalDetectorWith(0.5, 8)
}

// NewIntervalDetectorWith returns a training-mode detector with an
// explicit anomaly tolerance and per-ID sample requirement — the
// entry point for declarative scenarios that sweep the detection
// boundary instead of using the defaults.
func NewIntervalDetectorWith(tolerance float64, minSamples int) *IntervalDetector {
	return &IntervalDetector{Tolerance: tolerance, MinSamples: minSamples, learned: make(map[uint32]*arrivalModel), training: true}
}

// EndTraining freezes the learned baseline; unknown identifiers become
// reportable from now on.
func (d *IntervalDetector) EndTraining() { d.training = false }

// Observe feeds one frame arrival; it returns a non-nil alert when the
// frame is anomalous.
func (d *IntervalDetector) Observe(now sim.Time, f *canbus.Frame) *Alert {
	m, known := d.learned[f.ID]
	if !known {
		if d.training {
			d.learned[f.ID] = &arrivalModel{last: now}
			return nil
		}
		return &Alert{At: now, Detector: "interval", FrameID: f.ID}
	}
	gap := float64(now - m.last)
	m.last = now
	if m.count < d.MinSamples || d.training {
		// Still learning this ID's period.
		m.mean += (gap - m.mean) / float64(m.count+1)
		m.count++
		return nil
	}
	if gap < d.Tolerance*m.mean {
		return &Alert{At: now, Detector: "interval", FrameID: f.ID}
	}
	// Slowly adapt to drift.
	m.mean += (gap - m.mean) / 32
	return nil
}

// Fingerprint is the simulated analog signature of one physical
// transmitter: in EASI this is a vector of voltage-edge features; here
// it is a deterministic per-node vector plus per-frame measurement
// noise. Receivers can measure it, transmitters cannot forge another
// node's — it is physics, not bits.
type Fingerprint [8]float64

// NodeFingerprint derives the stable signature of a physical node.
func NodeFingerprint(nodeID string) Fingerprint {
	sum := sha256.Sum256([]byte("analog:" + nodeID))
	var f Fingerprint
	for i := range f {
		f[i] = float64(sum[i]) / 255
	}
	return f
}

func (a Fingerprint) dist(b Fingerprint) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// SenderIdentifier is the EASI-style detector: it enrolls the legitimate
// transmitter's fingerprint per identifier and flags frames whose
// measured signature is too far from the enrolled one.
type SenderIdentifier struct {
	// MatchRadius is the maximum fingerprint distance accepted.
	MatchRadius float64
	// NoiseStd is the measurement noise of the analog front end.
	NoiseStd float64

	enrolled map[uint32]Fingerprint
	nodes    []knownNode    // every known physical node, in KnowNode order
	index    map[string]int // node name → position in nodes
	rng      *sim.RNG
}

// knownNode is one profiled physical node and its stable signature.
type knownNode struct {
	name string
	fp   Fingerprint
}

// NewSenderIdentifier creates the detector.
func NewSenderIdentifier(rng *sim.RNG) *SenderIdentifier {
	return &SenderIdentifier{
		MatchRadius: 0.25,
		NoiseStd:    0.03,
		enrolled:    make(map[uint32]Fingerprint),
		index:       make(map[string]int),
		rng:         rng,
	}
}

// Enroll registers the legitimate transmitter of an identifier (done in
// a trusted provisioning phase).
func (s *SenderIdentifier) Enroll(frameID uint32, nodeID string) {
	s.enrolled[frameID] = NodeFingerprint(nodeID)
	s.KnowNode(nodeID)
}

// KnowNode registers a physical node's signature for attribution (all
// in-vehicle ECUs get profiled at provisioning, including ones that
// never legitimately send protected identifiers). Knowing a node twice
// keeps its first position.
func (s *SenderIdentifier) KnowNode(nodeID string) {
	if _, ok := s.index[nodeID]; ok {
		return
	}
	s.index[nodeID] = len(s.nodes)
	s.nodes = append(s.nodes, knownNode{name: nodeID, fp: NodeFingerprint(nodeID)})
}

// Observe measures a frame's analog signature — the transmitter's
// stable fingerprint plus Gaussian front-end noise — and flags
// mismatches. A known transmitter's fingerprint comes from its profile;
// only an unknown one is derived from its name.
func (s *SenderIdentifier) Observe(now sim.Time, f *canbus.Frame) *Alert {
	want, ok := s.enrolled[f.ID]
	if !ok {
		return nil // not a protected identifier
	}
	var got Fingerprint
	if i, known := s.index[f.SourceID]; known {
		got = s.nodes[i].fp
	} else {
		got = NodeFingerprint(f.SourceID)
	}
	for i := range got {
		got[i] += s.NoiseStd * s.rng.NormFloat64()
	}
	if got.dist(want) > s.MatchRadius {
		return &Alert{At: now, Detector: "sender-id", FrameID: f.ID, Source: s.attribute(got)}
	}
	return nil
}

// attribute finds the nearest known node signature (best effort); a
// tie goes to the node known first.
func (s *SenderIdentifier) attribute(fp Fingerprint) string {
	best, bestD := "", math.Inf(1)
	for _, n := range s.nodes {
		if d := n.fp.dist(fp); d < bestD {
			best, bestD = n.name, d
		}
	}
	if bestD > 0.5 {
		return ""
	}
	return best
}
