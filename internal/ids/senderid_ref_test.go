package ids

import (
	"fmt"
	"math"
	"testing"

	"autosec/internal/canbus"
	"autosec/internal/sim"
)

// senderIDRef is the original SenderIdentifier, kept as the reference
// the profiled-fingerprint detector is pinned against: it re-hashes the
// transmitter's fingerprint on every frame and attributes over a map.
type senderIDRef struct {
	matchRadius, noiseStd float64

	enrolled map[uint32]Fingerprint
	nodes    map[string]Fingerprint
	rng      *sim.RNG
}

func newSenderIDRef(rng *sim.RNG, radius, noise float64) *senderIDRef {
	return &senderIDRef{
		matchRadius: radius, noiseStd: noise,
		enrolled: make(map[uint32]Fingerprint),
		nodes:    make(map[string]Fingerprint),
		rng:      rng,
	}
}

func (s *senderIDRef) Enroll(frameID uint32, nodeID string) {
	s.enrolled[frameID] = NodeFingerprint(nodeID)
	s.KnowNode(nodeID)
}

func (s *senderIDRef) KnowNode(nodeID string) { s.nodes[nodeID] = NodeFingerprint(nodeID) }

func (s *senderIDRef) Observe(now sim.Time, f *canbus.Frame) (Alert, bool) {
	want, ok := s.enrolled[f.ID]
	if !ok {
		return Alert{}, false
	}
	got := NodeFingerprint(f.SourceID)
	for i := range got {
		got[i] += s.noiseStd * s.rng.NormFloat64()
	}
	if got.dist(want) > s.matchRadius {
		return Alert{At: now, Detector: "sender-id", FrameID: f.ID, Source: s.attribute(got)}, true
	}
	return Alert{}, false
}

func (s *senderIDRef) attribute(fp Fingerprint) string {
	best, bestD := "", math.Inf(1)
	for name, sig := range s.nodes {
		if d := sig.dist(fp); d < bestD {
			best, bestD = name, d
		}
	}
	if bestD > 0.5 {
		return ""
	}
	return best
}

// TestSenderIdentifierMatchesReference drives the detector and the
// reference with the same frames from the same seed: enrolled and
// unenrolled identifiers, known senders, a known masquerader and a
// sender that was never profiled. Every alert (raised or not, time,
// identifier, detector and attribution) and the RNG position after the
// run must match. The detector runs as provisioned and as a Clone of a
// provisioned one; enrolling on the clone must leave the original as it
// was.
func TestSenderIdentifierMatchesReference(t *testing.T) {
	t.Parallel()
	senders := []string{"engine", "brake", "infotainment", "rogue"} // rogue is never known
	ids := []uint32{0x0C0, 0x0D0, 0x300}                            // 0x300 is never enrolled
	for _, noise := range []float64{0, 0.03, 0.2} {
		for _, radius := range []float64{0.05, 0.25, 1.2} {
			for _, seed := range []int64{42, 7919} {
				for _, cloned := range []bool{false, true} {
					name := fmt.Sprintf("noise=%g radius=%g seed=%d cloned=%v", noise, radius, seed, cloned)
					rng, refRNG := sim.NewRNG(seed), sim.NewRNG(seed)
					s := NewSenderIdentifier(rng)
					if cloned {
						s = NewSenderIdentifier(nil)
					}
					s.MatchRadius, s.NoiseStd = radius, noise
					ref := newSenderIDRef(refRNG, radius, noise)
					for _, d := range []interface {
						Enroll(uint32, string)
						KnowNode(string)
					}{s, ref} {
						d.Enroll(0x0C0, "engine")
						d.Enroll(0x0D0, "brake")
						d.KnowNode("infotainment")
						d.KnowNode("engine")
					}
					orig := s
					if cloned {
						s = orig.Clone(rng)
					}
					pick := sim.NewRNG(seed + 1)
					alerts := 0
					for i := 0; i < 400; i++ {
						f := &canbus.Frame{ID: ids[pick.Intn(len(ids))], Format: canbus.FD, SourceID: senders[pick.Intn(len(senders))]}
						now := sim.Time(i)
						got, gotOK := s.Observe(now, f)
						want, wantOK := ref.Observe(now, f)
						if gotOK != wantOK {
							t.Fatalf("%s frame %d (%#x from %s): alert %v, reference %v", name, i, f.ID, f.SourceID, gotOK, wantOK)
						}
						if gotOK {
							alerts++
						}
						if got != want {
							t.Fatalf("%s frame %d: alert %+v, reference %+v", name, i, got, want)
						}
					}
					if rng.Draws() != refRNG.Draws() {
						t.Fatalf("%s: %d draws, reference %d", name, rng.Draws(), refRNG.Draws())
					}
					if rng.Uint64() != refRNG.Uint64() {
						t.Fatalf("%s: the next draw differs from the reference's", name)
					}
					if radius == 0.25 && alerts == 0 {
						t.Errorf("%s: no alert raised, so attribution went unchecked", name)
					}
					if cloned {
						s.Enroll(0x300, "rogue")
						if _, ok := orig.enrolled[0x300]; ok || len(orig.nodes) != 3 || len(orig.index) != 3 {
							t.Fatalf("%s: enrolling on the clone changed the original", name)
						}
					}
				}
			}
		}
	}
}

// TestAttributeTieFirstKnown: when two known nodes carry the same
// fingerprint, attribution goes to the one passed to KnowNode first,
// whatever the names.
func TestAttributeTieFirstKnown(t *testing.T) {
	t.Parallel()
	for _, order := range [][2]string{{"alpha", "beta"}, {"beta", "alpha"}} {
		s := NewSenderIdentifier(sim.NewRNG(1))
		s.KnowNode(order[0])
		s.KnowNode(order[1])
		s.KnowNode(order[0]) // knowing a node again keeps its position
		s.nodes[1].fp = s.nodes[0].fp
		for i := 0; i < 20; i++ {
			if got := s.attribute(s.nodes[0].fp); got != order[0] {
				t.Fatalf("KnowNode order %v: tie attributed to %q, want %q", order, got, order[0])
			}
		}
	}
}
