package sensor

import (
	"math"
	"testing"

	"autosec/internal/sim"
	"autosec/internal/world"
)

var key = []byte("ranging-key-16by")

func buildWorld(t *testing.T) *world.World {
	t.Helper()
	w := world.New()
	for _, a := range []*world.Actor{
		{ID: "ego", Pos: world.Vec2{}, Radius: 1, Transponder: true},
		{ID: "lead", Pos: world.Vec2{X: 40}, Radius: 1, Transponder: true},
		{ID: "ped", Pos: world.Vec2{X: 30, Y: 5}, Radius: 0.4},
	} {
		if err := w.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestSenseSeesAllModalitiesAllActors(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	dets := s.Sense(w, nil, sim.NewRNG(1))
	// 2 visible actors × 3 modalities.
	if len(dets) != 6 {
		t.Fatalf("detections = %d, want 6", len(dets))
	}
	perMod := map[Modality]int{}
	for _, d := range dets {
		perMod[d.Modality]++
		if d.TruthID == "" {
			t.Error("benign detection without ground truth")
		}
	}
	for _, m := range []Modality{Lidar, Radar, Camera} {
		if perMod[m] != 2 {
			t.Errorf("%v saw %d", m, perMod[m])
		}
	}
}

func TestRemovalAttackHidesFromOneModality(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	att := &Attack{Target: Lidar, RemoveID: "lead"}
	dets := s.Sense(w, att, sim.NewRNG(1))
	for _, d := range dets {
		if d.Modality == Lidar && d.TruthID == "lead" {
			t.Error("removed object still visible to lidar")
		}
	}
}

func TestGhostInjection(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	g := world.Vec2{X: 20}
	att := &Attack{Target: Radar, GhostAt: &g}
	dets := s.Sense(w, att, sim.NewRNG(1))
	found := false
	for _, d := range dets {
		if d.Modality == Radar && d.TruthID == "" {
			found = true
		}
	}
	if !found {
		t.Error("ghost not injected")
	}
}

func TestRangeToBenign(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	m, err := s.RangeTo(w, "lead", nil, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Accepted {
		t.Fatalf("benign ranging rejected: %s", m.Reason)
	}
	if m.ErrorM() > 1 || m.ErrorM() < -1 {
		t.Errorf("ranging error %.2f m", m.ErrorM())
	}
}

func TestRangeToRejectsEnlargementWhenSecure(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	att := &Attack{EnlargeM: 30}
	rng := sim.NewRNG(3)
	rejected := 0
	for i := 0; i < 20; i++ {
		m, err := s.RangeTo(w, "lead", att, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Accepted || m.ErrorM() < 10 {
			rejected++
		}
	}
	if rejected < 15 {
		t.Errorf("secure ranging caught only %d/20 enlargements", rejected)
	}
}

func TestRangeToNoTransponder(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	if _, err := s.RangeTo(w, "ped", nil, sim.NewRNG(1)); err == nil {
		t.Error("ranging to non-transponder target succeeded")
	}
	if _, err := s.RangeTo(w, "missing", nil, sim.NewRNG(1)); err == nil {
		t.Error("ranging to unknown actor succeeded")
	}
}

func TestNaiveFusionBelievesGhost(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	rng := sim.NewRNG(4)
	g := world.Vec2{X: 20}
	att := &Attack{Target: Radar, GhostAt: &g}
	dets := s.Sense(w, att, rng)
	obs := s.Fuse(w, dets, NaiveFusion, att, rng)
	ghostBelieved := false
	for _, ob := range obs {
		if ob.TruthID == "" {
			ghostBelieved = true
		}
	}
	if !ghostBelieved {
		t.Error("naive fusion rejected the ghost (should believe it)")
	}
}

func TestConsensusFusionRejectsSingleModalityGhost(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	rng := sim.NewRNG(4)
	g := world.Vec2{X: 20}
	att := &Attack{Target: Radar, GhostAt: &g}
	dets := s.Sense(w, att, rng)
	obs := s.Fuse(w, dets, ConsensusFusion, att, rng)
	for _, ob := range obs {
		if ob.TruthID == "" {
			t.Error("consensus fusion believed a single-modality ghost")
		}
	}
	// Real objects must survive.
	if len(obs) < 2 {
		t.Errorf("consensus fusion kept only %d objects", len(obs))
	}
}

func TestVerifiedFusionConfirmsTransponderTraffic(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	rng := sim.NewRNG(5)
	dets := s.Sense(w, nil, rng)
	obs := s.Fuse(w, dets, VerifiedFusion, nil, rng)
	verified := false
	for _, ob := range obs {
		if ob.TruthID == "lead" && ob.Verified {
			verified = true
		}
	}
	if !verified {
		t.Error("lead vehicle not ranging-verified")
	}
}

func TestEncounterBenignNoCollision(t *testing.T) {
	for _, policy := range []FusionPolicy{NaiveFusion, ConsensusFusion, VerifiedFusion} {
		res, err := RunEncounter(DefaultEncounter(policy, nil), key, sim.NewRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		if res.Collided {
			t.Errorf("policy %v: benign encounter collided", policy)
		}
		if !res.Braked {
			t.Errorf("policy %v: never braked", policy)
		}
	}
}

func TestEncounterRemovalAttackCausesCollisionOnNaive(t *testing.T) {
	// Remove the lead from all three modalities? The literature attacks
	// one modality; naive fusion still brakes on the others. The
	// dangerous configuration the paper warns about is a single-sensor
	// (lidar-only-trusting) system; model that by removing from lidar
	// and checking consensus behaviour below. For naive fusion we show
	// the *ghost* failure instead: phantom braking.
	g := world.Vec2{X: 20}
	att := &Attack{Target: Radar, GhostAt: &g}
	cfg := DefaultEncounter(NaiveFusion, att)
	cfg.InitialGapM = 300 // no real obstacle anywhere near braking range
	res, err := RunEncounter(cfg, key, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.FalseBrake {
		t.Error("naive fusion did not phantom-brake on the ghost")
	}
	cfg.Policy = ConsensusFusion
	res, err = RunEncounter(cfg, key, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseBrake {
		t.Error("consensus fusion phantom-braked on a single-modality ghost")
	}
}

func TestCutInBenignNoCollision(t *testing.T) {
	for _, policy := range []FusionPolicy{NaiveFusion, ConsensusFusion, VerifiedFusion} {
		res, err := RunCutIn(DefaultCutIn(policy, nil), key, sim.NewRNG(31))
		if err != nil {
			t.Fatal(err)
		}
		if res.Collided {
			t.Errorf("policy %v: benign cut-in collided", policy)
		}
		if !res.Braked {
			t.Errorf("policy %v: never reacted to the cut-in", policy)
		}
	}
}

func TestCutInFullRemovalCausesCollision(t *testing.T) {
	// If an attacker could remove the cutter from ALL modalities there
	// is nothing fusion can do — verify the scenario is actually
	// dangerous by disabling perception of the cutter entirely.
	cfg := DefaultCutIn(ConsensusFusion, nil)
	cfg.BrakeRangeM = 0 // equivalent: never believe anything
	res, err := RunCutIn(cfg, key, sim.NewRNG(32))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Collided {
		t.Error("blind ego did not collide — scenario not forcing")
	}
}

func TestCutInSingleModalityRemovalAbsorbed(t *testing.T) {
	att := &Attack{Target: Lidar, RemoveID: "lead"}
	res, err := RunCutIn(DefaultCutIn(ConsensusFusion, att), key, sim.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided {
		t.Error("consensus fusion collided under single-modality removal")
	}
}

func TestCutInDeterministic(t *testing.T) {
	a, err := RunCutIn(DefaultCutIn(VerifiedFusion, nil), key, sim.NewRNG(34))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCutIn(DefaultCutIn(VerifiedFusion, nil), key, sim.NewRNG(34))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestEncounterDeterministic(t *testing.T) {
	a, err := RunEncounter(DefaultEncounter(VerifiedFusion, nil), key, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEncounter(DefaultEncounter(VerifiedFusion, nil), key, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestModalityAndPolicyStrings(t *testing.T) {
	if Lidar.String() != "lidar" || Ranging.String() != "ranging" {
		t.Error("modality strings")
	}
	if NaiveFusion.String() != "naive" || VerifiedFusion.String() != "verified" {
		t.Error("policy strings")
	}
}

// TestTruthIDTieFirstSeen pins the majority-truth tie rule: with two
// detections each of two actors in one cluster, the actor seen first
// wins, every time. (Counting through a map let map iteration order
// pick the winner.)
func TestTruthIDTieFirstSeen(t *testing.T) {
	w := buildWorld(t)
	at := world.Vec2{X: 30}
	dets := []Detection{
		{Modality: Radar, Pos: at, Range: 30, TruthID: "lead"},
		{Modality: Lidar, Pos: at, Range: 30, TruthID: "ped"},
		{Modality: Camera, Pos: at, Range: 30, TruthID: "ped"},
		{Modality: Lidar, Pos: at, Range: 30, TruthID: "lead"},
	}
	s := NewSuite("ego", key)
	for run := 0; run < 100; run++ {
		obs := s.Fuse(w, dets, NaiveFusion, nil, sim.NewRNG(1))
		if len(obs) != 1 || obs[0].TruthID != "lead" {
			t.Fatalf("run %d: fused %+v, want one obstacle with TruthID lead", run, obs)
		}
	}
}

// fuseRef is naive fusion as Fuse computed it before clustering moved
// into the suite's buffers: per-cluster member slices, a recomputed
// minimum range, and maps for the modality count and majority truth
// (with the tie going to the first-seen ID).
func fuseRef(dets []Detection) []Obstacle {
	type refCluster struct {
		dets []Detection
		sum  world.Vec2
	}
	var clusters []*refCluster
	for _, d := range dets {
		placed := false
		for _, c := range clusters {
			if world.Dist(c.sum.Scale(1/float64(len(c.dets))), d.Pos) <= associationGate {
				c.dets = append(c.dets, d)
				c.sum = c.sum.Add(d.Pos)
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, &refCluster{dets: []Detection{d}, sum: d.Pos})
		}
	}
	var out []Obstacle
	for _, c := range clusters {
		minRange := c.dets[0].Range
		seen := map[Modality]bool{}
		counts := map[string]int{}
		var order []string
		for _, d := range c.dets {
			if d.Range < minRange {
				minRange = d.Range
			}
			seen[d.Modality] = true
			if counts[d.TruthID] == 0 {
				order = append(order, d.TruthID)
			}
			counts[d.TruthID]++
		}
		best, bestN := "", 0
		for _, id := range order {
			if counts[id] > bestN {
				best, bestN = id, counts[id]
			}
		}
		out = append(out, Obstacle{Pos: c.sum.Scale(1 / float64(len(c.dets))), Range: minRange, Sources: len(seen), TruthID: best})
	}
	return out
}

// TestFuseMatchesReference pins the running-aggregate clustering to
// fuseRef bit for bit over random detection sets: crowded scenes where
// gates overlap, repeated IDs, ghosts, and NaN ranges. One suite serves
// every set, so stale buffer contents would surface as mismatches.
func TestFuseMatchesReference(t *testing.T) {
	w := buildWorld(t)
	s := NewSuite("ego", key)
	rng := sim.NewRNG(6)
	ids := []string{"", "lead", "ped", "car1", "car2"}
	for iter := 0; iter < 500; iter++ {
		dets := make([]Detection, rng.Intn(30))
		for i := range dets {
			d := &dets[i]
			d.Modality = Modality(rng.Intn(4))
			d.Pos = world.Vec2{X: 20 * rng.Float64(), Y: 6 * rng.Float64()}
			d.Range = 100 * rng.Float64()
			if rng.Intn(20) == 0 {
				d.Range = math.NaN()
			}
			d.TruthID = ids[rng.Intn(len(ids))]
		}
		got := s.Fuse(w, dets, NaiveFusion, nil, rng)
		want := fuseRef(dets)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d obstacles, want %d", iter, len(got), len(want))
		}
		for i := range got {
			g, r := got[i], want[i]
			if math.Float64bits(g.Pos.X) != math.Float64bits(r.Pos.X) || math.Float64bits(g.Pos.Y) != math.Float64bits(r.Pos.Y) ||
				math.Float64bits(g.Range) != math.Float64bits(r.Range) ||
				g.Sources != r.Sources || g.TruthID != r.TruthID || g.Verified != r.Verified {
				t.Fatalf("iter %d, obstacle %d: got %+v, want %+v", iter, i, g, r)
			}
		}
	}
}
