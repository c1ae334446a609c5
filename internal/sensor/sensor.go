// Package sensor implements the collision-avoidance sensing stack of the
// paper's §II-B: LiDAR, radar, and camera models observing the shared
// 2-D world; spoofing and object-removal attacks on them (refs [9]–[11]);
// a cooperative two-way-ranging channel (UWB / 5G PRS) with physical-
// layer integrity checks (refs [12], [13]); and fusion policies from
// naive single-source trust to ranging-verified fail-safe fusion.
//
// Exercised by experiment exp-ca.
package sensor

import (
	"fmt"

	"autosec/internal/sim"
	"autosec/internal/uwb"
	"autosec/internal/world"
)

// Modality identifies the sensing technology.
type Modality int

const (
	Lidar Modality = iota
	Radar
	Camera
	Ranging // cooperative UWB / 5G-PRS two-way ranging
)

func (m Modality) String() string {
	switch m {
	case Lidar:
		return "lidar"
	case Radar:
		return "radar"
	case Camera:
		return "camera"
	case Ranging:
		return "ranging"
	default:
		return fmt.Sprintf("Modality(%d)", int(m))
	}
}

// Detection is one sensed object.
type Detection struct {
	Modality Modality
	// Pos is the estimated position (world frame).
	Pos world.Vec2
	// Range is the estimated distance from the ego vehicle.
	Range float64
	// TruthID is ground-truth bookkeeping for scoring: the actor this
	// detection corresponds to, or "" for a ghost. Fusion policies must
	// not read it.
	TruthID string
	// Verified marks detections confirmed by integrity-checked ranging.
	Verified bool
}

// Attack mutates a modality's detection list. It models physical-channel
// adversaries: ghost object injection and object removal.
type Attack struct {
	// RemoveID hides this actor from the modality (e.g. LiDAR physical
	// removal attack, ref [11]).
	RemoveID string
	// GhostAt injects a fake object at this position (e.g. mmWave
	// reflect-array spoofing, ref [9]).
	GhostAt *world.Vec2
	// Target limits the attack to one modality.
	Target Modality
	// EnlargeM shifts the ranging-channel distance by this many metres
	// (distance enlargement, §II-B's "particularly dangerous" case).
	EnlargeM float64
}

// Suite is the ego vehicle's sensor set.
type Suite struct {
	EgoID string
	// MaxRange bounds every modality.
	MaxRange float64
	// NoiseStd is the per-axis position noise of lidar/radar/camera.
	NoiseStd float64
	// RangingKey is the STS/ranging key shared with transponder-equipped
	// actors.
	RangingKey []byte
	// SecureRanging enables the integrity-checked receiver; without it
	// the ranging channel trusts the naive first-path estimate.
	SecureRanging bool

	session uint32
	// ranging is the UWB session RangeTo reconfigures per call; its
	// buffers come from uwb's shared arena pool, so ranging stays
	// allocation-free across calls and across encounters.
	ranging uwb.Session
	// neighbors is Sense's scratch for the world neighbourhood query,
	// reused across ticks so the per-tick query is allocation-free.
	neighbors []*world.Actor
	// clusters and next are Fuse's clustering buffers: the clusters of
	// the current call and, per detection, the next member of its
	// cluster (-1 at the end).
	clusters []cluster
	next     []int
}

// NewSuite returns a sensor suite with automotive-plausible defaults.
func NewSuite(egoID string, key []byte) *Suite {
	return &Suite{EgoID: egoID, MaxRange: 150, NoiseStd: 0.15, RangingKey: key, SecureRanging: true}
}

// Sense runs all passive modalities (lidar, radar, camera) under the
// given attack (nil for benign) and returns the raw detections.
func (s *Suite) Sense(w *world.World, att *Attack, rng *sim.RNG) []Detection {
	ego := w.Get(s.EgoID)
	if ego == nil {
		return nil
	}
	// One neighbourhood scan serves all three modalities: the world does
	// not move mid-Sense, so the per-modality queries were identical.
	s.neighbors = w.NeighborsAppend(s.neighbors[:0], ego.Pos, s.MaxRange, s.EgoID)
	// Every neighbour can appear once per modality, plus one ghost.
	n := 3 * len(s.neighbors)
	if att != nil && att.GhostAt != nil {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Detection, 0, n)
	for _, m := range []Modality{Lidar, Radar, Camera} {
		for _, a := range s.neighbors {
			if att != nil && att.Target == m && att.RemoveID == a.ID {
				continue // removed from this modality's view
			}
			noisy := world.Vec2{
				X: a.Pos.X + s.NoiseStd*rng.NormFloat64(),
				Y: a.Pos.Y + s.NoiseStd*rng.NormFloat64(),
			}
			out = append(out, Detection{
				Modality: m,
				Pos:      noisy,
				Range:    world.Dist(ego.Pos, noisy),
				TruthID:  a.ID,
			})
		}
		if att != nil && att.Target == m && att.GhostAt != nil {
			g := *att.GhostAt
			out = append(out, Detection{Modality: m, Pos: g, Range: world.Dist(ego.Pos, g)})
		}
	}
	return out
}

// RangeTo performs cooperative two-way ranging to a transponder-equipped
// actor through the UWB physical layer, applying the attack's distance
// enlargement if any. It returns the measurement (which carries its own
// acceptance verdict).
func (s *Suite) RangeTo(w *world.World, targetID string, att *Attack, rng *sim.RNG) (uwb.Measurement, error) {
	ego := w.Get(s.EgoID)
	target := w.Get(targetID)
	if ego == nil || target == nil {
		return uwb.Measurement{}, fmt.Errorf("sensor: unknown actor for ranging")
	}
	if !target.Transponder {
		return uwb.Measurement{}, fmt.Errorf("sensor: %s has no ranging transponder", targetID)
	}
	s.session++
	sess := &s.ranging
	sess.Key = s.RangingKey
	sess.Session = s.session
	sess.Pulses = 256
	sess.Channel = uwb.Channel{DistanceM: world.Dist(ego.Pos, target.Pos), NoiseStd: 0.2}
	sess.Secure = s.SecureRanging
	sess.Config = uwb.DefaultSecureConfig()
	sess.NaiveThreshold = 0.4
	var attacker uwb.Attacker
	if att != nil && att.EnlargeM > 0 {
		attacker = &uwb.JamReplayAttacker{
			DelaySamples: uwb.MetresToSamples(att.EnlargeM),
			JamStd:       1.2,
			ReplayGain:   3,
		}
	}
	return sess.Measure(attacker, rng)
}
