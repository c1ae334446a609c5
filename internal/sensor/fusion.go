package sensor

import (
	"math/bits"

	"autosec/internal/sim"
	"autosec/internal/world"
)

// FusionPolicy decides which detections become believed obstacles.
type FusionPolicy int

const (
	// NaiveFusion believes every detection from any single modality —
	// the configuration the spoofing literature attacks.
	NaiveFusion FusionPolicy = iota
	// ConsensusFusion requires at least two modalities to agree on an
	// object (association within a gate) before believing it; defeats
	// single-modality ghosts but not multi-modality removal.
	ConsensusFusion
	// VerifiedFusion is ConsensusFusion plus cooperative two-way
	// ranging confirmation for transponder-equipped traffic, with a
	// fail-safe rule: if ranging *rejects* its integrity checks, the
	// object is assumed present (attack ⇒ caution, §II-B).
	VerifiedFusion
)

func (p FusionPolicy) String() string {
	switch p {
	case NaiveFusion:
		return "naive"
	case ConsensusFusion:
		return "consensus"
	case VerifiedFusion:
		return "verified"
	default:
		return "unknown"
	}
}

// Obstacle is a fused, believed object.
type Obstacle struct {
	Pos      world.Vec2
	Range    float64
	Sources  int
	Verified bool
	TruthID  string
}

// associationGate is the distance within which detections are considered
// the same physical object.
const associationGate = 2.5

// Fuse applies the policy to raw detections. For VerifiedFusion it
// additionally issues ranging exchanges through the suite. Clustering
// runs in the suite's reusable buffers, so only the returned slice is
// allocated.
func (s *Suite) Fuse(w *world.World, dets []Detection, policy FusionPolicy, att *Attack, rng *sim.RNG) []Obstacle {
	clusters := s.clusterDetections(dets)
	var out []Obstacle
	for i := range clusters {
		c := &clusters[i]
		ob := Obstacle{Pos: c.centroid(), Range: c.minRange, Sources: bits.OnesCount64(c.modalities), TruthID: c.truthID(dets, s.next)}
		switch policy {
		case NaiveFusion:
		case ConsensusFusion:
			if ob.Sources < 2 {
				continue
			}
		case VerifiedFusion:
			if ob.Sources < 2 {
				continue
			}
			// Confirm cooperative traffic by secure ranging; objects
			// without transponders (pedestrians, debris) stay believed
			// on consensus alone.
			if truth := w.Get(ob.TruthID); ob.TruthID != "" && truth != nil && truth.Transponder {
				m, err := s.RangeTo(w, ob.TruthID, att, rng)
				if err == nil {
					if m.Accepted {
						ob.Range = m.MeasuredDistanceM
						ob.Verified = true
					} else {
						// Integrity check failed: fail safe — keep the
						// consensus range and flag the object.
						ob.Verified = false
					}
				}
			}
		default:
			continue
		}
		if out == nil {
			out = make([]Obstacle, 0, len(clusters)-i)
		}
		out = append(out, ob)
	}
	return out
}

// cluster groups detections of one physical (or ghost) object. It
// keeps running aggregates, each updated in member (append) order: sum
// is the position total, so the centroid is bit-identical to summing
// the members left to right; minRange is the first member's range
// lowered by each later one; modalities has bit m set when a member has
// Modality m (every defined Modality is below 64). The members
// themselves are indices into the fused detections, chained from head
// through the suite's next slice and ending at tail.
type cluster struct {
	sum        world.Vec2
	n          int
	minRange   float64
	modalities uint64
	head, tail int
}

// clusterDetections assigns each detection to the first cluster whose
// centroid lies within the association gate, or opens a new one. The
// clusters and member links live in the suite's buffers and are valid
// until the next call.
func (s *Suite) clusterDetections(dets []Detection) []cluster {
	clusters := s.clusters[:0]
	if cap(s.next) < len(dets) {
		s.next = make([]int, len(dets))
	}
	next := s.next[:len(dets)]
	for i, d := range dets {
		next[i] = -1
		placed := false
		for j := range clusters {
			c := &clusters[j]
			if world.Dist(c.centroid(), d.Pos) <= associationGate {
				c.sum = c.sum.Add(d.Pos)
				c.n++
				if d.Range < c.minRange {
					c.minRange = d.Range
				}
				c.modalities |= 1 << uint(d.Modality)
				next[c.tail], c.tail = i, i
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, cluster{sum: d.Pos, n: 1, minRange: d.Range, modalities: 1 << uint(d.Modality), head: i, tail: i})
		}
	}
	s.clusters, s.next = clusters, next
	return clusters
}

func (c *cluster) centroid() world.Vec2 {
	return c.sum.Scale(1 / float64(c.n))
}

// truthID is the majority ground truth among the members (ghosts have
// ""); on a tie the ID seen first in member order wins. Each ID is
// counted at its first occurrence, by walking the members after it.
func (c *cluster) truthID(dets []Detection, next []int) string {
	best, bestN := "", 0
	for i := c.head; i >= 0; i = next[i] {
		id := dets[i].TruthID
		seen := false
		for j := c.head; j != i; j = next[j] {
			if dets[j].TruthID == id {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		n := 1
		for j := next[i]; j >= 0; j = next[j] {
			if dets[j].TruthID == id {
				n++
			}
		}
		if n > bestN {
			best, bestN = id, n
		}
	}
	return best
}

// EncounterConfig describes one car-following scenario: the ego closes
// on a slower lead vehicle and must brake on sensor evidence.
type EncounterConfig struct {
	Policy       FusionPolicy
	Attack       *Attack
	EgoSpeed     float64 // m/s
	LeadSpeed    float64 // m/s
	InitialGapM  float64
	BrakeDecel   float64 // m/s²
	BrakeRangeM  float64 // brake when a believed obstacle is nearer
	StepS        float64
	MaxSteps     int
	SecureRanges bool
}

// DefaultEncounter is the workload of experiment exp-ca.
func DefaultEncounter(policy FusionPolicy, att *Attack) EncounterConfig {
	return EncounterConfig{
		Policy: policy, Attack: att,
		EgoSpeed: 25, LeadSpeed: 10, InitialGapM: 80,
		BrakeDecel: 8, BrakeRangeM: 45,
		StepS: 0.1, MaxSteps: 200, SecureRanges: true,
	}
}

// EncounterResult reports what happened.
type EncounterResult struct {
	Collided bool
	Braked   bool
	// FalseBrake is set when the ego braked with no real obstacle in
	// braking range (ghost-induced).
	FalseBrake bool
	FinalGapM  float64
}

// CutInConfig describes the two-lane cut-in scenario: a vehicle in the
// adjacent lane merges into the ego's lane at a short gap — the
// encounter where late detection is most punishing, and where §II-B's
// object-removal attack is most dangerous (the merging car must be seen
// *before* it is directly ahead).
type CutInConfig struct {
	Policy FusionPolicy
	Attack *Attack
	// EgoSpeed and CutterSpeed in m/s; the cutter is slower, so the gap
	// closes after the merge.
	EgoSpeed    float64
	CutterSpeed float64
	// MergeGapM is the longitudinal gap at which the cutter starts
	// merging.
	MergeGapM   float64
	BrakeDecel  float64
	BrakeRangeM float64
	StepS       float64
	MaxSteps    int
}

// DefaultCutIn is the exp-ca cut-in workload.
func DefaultCutIn(policy FusionPolicy, att *Attack) CutInConfig {
	return CutInConfig{
		Policy: policy, Attack: att,
		EgoSpeed: 25, CutterSpeed: 15, MergeGapM: 35,
		BrakeDecel: 8, BrakeRangeM: 45,
		StepS: 0.1, MaxSteps: 200,
	}
}

// RunCutIn simulates one cut-in and reports the outcome. The ego brakes
// only for believed obstacles in its own lane (|Y| < laneHalfWidth), so
// the cutter matters exactly from the moment it crosses over.
func RunCutIn(cfg CutInConfig, key []byte, rng *sim.RNG) (EncounterResult, error) {
	const laneHalfWidth = 1.8
	w := world.New()
	ego := &world.Actor{ID: "ego", Pos: world.Vec2{}, Vel: world.Vec2{X: cfg.EgoSpeed}, Radius: 1.0, Transponder: true}
	cutter := &world.Actor{
		ID:  "lead", // reuses the attackable ID so Attack{RemoveID:"lead"} applies
		Pos: world.Vec2{X: cfg.MergeGapM + 40, Y: 3.5}, Vel: world.Vec2{X: cfg.CutterSpeed},
		Radius: 1.0, Transponder: true,
	}
	if err := w.Add(ego); err != nil {
		return EncounterResult{}, err
	}
	if err := w.Add(cutter); err != nil {
		return EncounterResult{}, err
	}

	suite := NewSuite("ego", key)
	var res EncounterResult
	merging := false
	for step := 0; step < cfg.MaxSteps; step++ {
		// Start the lane change when the gap closes to MergeGapM.
		gap := cutter.Pos.X - ego.Pos.X
		if !merging && gap <= cfg.MergeGapM {
			merging = true
			cutter.Vel.Y = -2.0
		}
		if merging && cutter.Pos.Y <= 0 {
			cutter.Pos.Y = 0
			cutter.Vel.Y = 0
		}

		dets := suite.Sense(w, cfg.Attack, rng)
		obstacles := suite.Fuse(w, dets, cfg.Policy, cfg.Attack, rng)
		shouldBrake := false
		for _, ob := range obstacles {
			inLane := ob.Pos.Y > -laneHalfWidth && ob.Pos.Y < laneHalfWidth
			if inLane && ob.Pos.X > ego.Pos.X && ob.Range <= cfg.BrakeRangeM {
				shouldBrake = true
			}
		}
		if shouldBrake {
			res.Braked = true
			v := ego.Vel.X - cfg.BrakeDecel*cfg.StepS
			if v < cfg.CutterSpeed {
				v = cfg.CutterSpeed // match the cutter's speed, no need to stop
			}
			ego.Vel.X = v
		}
		w.Step(cfg.StepS)
		if len(w.Collisions()) > 0 {
			res.Collided = true
			break
		}
	}
	res.FinalGapM = world.Dist(ego.Pos, cutter.Pos)
	return res, nil
}

// RunEncounter simulates one encounter and returns the outcome.
func RunEncounter(cfg EncounterConfig, key []byte, rng *sim.RNG) (EncounterResult, error) {
	w := world.New()
	ego := &world.Actor{ID: "ego", Pos: world.Vec2{}, Vel: world.Vec2{X: cfg.EgoSpeed}, Radius: 1.0, Transponder: true}
	lead := &world.Actor{ID: "lead", Pos: world.Vec2{X: cfg.InitialGapM}, Vel: world.Vec2{X: cfg.LeadSpeed}, Radius: 1.0, Transponder: true}
	if err := w.Add(ego); err != nil {
		return EncounterResult{}, err
	}
	if err := w.Add(lead); err != nil {
		return EncounterResult{}, err
	}

	suite := NewSuite("ego", key)
	suite.SecureRanging = cfg.SecureRanges

	var res EncounterResult
	for step := 0; step < cfg.MaxSteps; step++ {
		dets := suite.Sense(w, cfg.Attack, rng)
		obstacles := suite.Fuse(w, dets, cfg.Policy, cfg.Attack, rng)

		shouldBrake := false
		nearestReal := world.Dist(ego.Pos, lead.Pos)
		for _, ob := range obstacles {
			if ob.Pos.X > ego.Pos.X && ob.Range <= cfg.BrakeRangeM {
				shouldBrake = true
				if ob.TruthID == "" && nearestReal > cfg.BrakeRangeM {
					res.FalseBrake = true
				}
			}
		}
		if shouldBrake {
			res.Braked = true
			v := ego.Vel.X - cfg.BrakeDecel*cfg.StepS
			if v < 0 {
				v = 0
			}
			ego.Vel.X = v
		}
		w.Step(cfg.StepS)
		if len(w.Collisions()) > 0 {
			res.Collided = true
			break
		}
		if ego.Vel.X == 0 {
			break
		}
	}
	res.FinalGapM = world.Dist(ego.Pos, lead.Pos)
	return res, nil
}
