package sos

import (
	"fmt"
	"strings"
	"testing"

	"autosec/internal/sim"
)

func maas(t *testing.T) *Model {
	t.Helper()
	m, err := BuildMaaS()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildMaaSStructure(t *testing.T) {
	m := maas(t)
	atLevel := make(map[int]int)
	for _, s := range m.systems {
		atLevel[s.Level]++
	}
	if atLevel[0] != 1 {
		t.Errorf("level 0: %d", atLevel[0])
	}
	if atLevel[1] != 4 {
		t.Errorf("level 1: %d systems, want 4 (AV, backend, hub, platform)", atLevel[1])
	}
	if atLevel[2] != 3 {
		t.Errorf("level 2: %d systems, want 3 (vehicle OS, SDS, passenger OS)", atLevel[2])
	}
	if atLevel[3] != 5 {
		t.Errorf("level 3: %d systems", atLevel[3])
	}
	if !m.System("safety-fn").SafetyCritical || !m.System("act").SafetyCritical {
		t.Error("safety-critical systems not flagged")
	}
}

func TestAddSystemValidation(t *testing.T) {
	m := NewModel()
	if err := m.AddSystem(&System{ID: "", Level: 0}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := m.AddSystem(&System{ID: "root", Level: 1}); err == nil {
		t.Error("root at level 1 accepted")
	}
	if err := m.AddSystem(&System{ID: "root", Level: 0}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddSystem(&System{ID: "root", Level: 0}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := m.AddSystem(&System{ID: "x", Level: 2, Parent: "root"}); err == nil {
		t.Error("level skip accepted")
	}
	if err := m.AddSystem(&System{ID: "y", Level: 1, Parent: "missing"}); err == nil {
		t.Error("missing parent accepted")
	}
}

func TestAddLinkValidation(t *testing.T) {
	m := NewModel()
	_ = m.AddSystem(&System{ID: "a", Level: 0})
	if err := m.AddLink(&Link{From: "a", To: "missing", Propagation: 0.5}); err == nil {
		t.Error("missing endpoint accepted")
	}
	if err := m.AddLink(&Link{From: "a", To: "a", Propagation: 1.5}); err == nil {
		t.Error("propagation > 1 accepted")
	}
}

func TestAttackSurfacePerLevel(t *testing.T) {
	m := maas(t)
	reports := m.AttackSurface()
	if len(reports) != 4 {
		t.Fatalf("%d levels reported", len(reports))
	}
	// Level 1 carries the platform's outward interfaces.
	l1 := reports[1]
	if l1.ExternalInterfaces < 8 {
		t.Errorf("level 1 external interfaces = %d", l1.ExternalInterfaces)
	}
	// Sensor apertures appear at level 2 (the SDS).
	l2 := reports[2]
	if l2.ByKind[SensorInput] != 4 {
		t.Errorf("level 2 sensor interfaces = %d", l2.ByKind[SensorInput])
	}
	// The level-0 abstraction itself has no direct interfaces.
	if reports[0].Interfaces != 0 {
		t.Errorf("level 0 interfaces = %d", reports[0].Interfaces)
	}
}

func TestResponsibilityGaps(t *testing.T) {
	m := maas(t)
	unowned, cross := m.ResponsibilityGaps()
	if len(unowned) != 5 {
		t.Errorf("unowned links = %d, want 5", len(unowned))
	}
	if len(cross) < 5 {
		t.Errorf("cross-stakeholder links = %d", len(cross))
	}
	// Every unowned link in this model crosses stakeholders.
	crossSet := map[[2]string]bool{}
	for _, l := range cross {
		crossSet[[2]string{l.From, l.To}] = true
	}
	for _, l := range unowned {
		if !crossSet[[2]string{l.From, l.To}] {
			t.Errorf("unowned link %s→%s is not cross-stakeholder", l.From, l.To)
		}
	}
}

func TestCascadeFromTelematicsReachesSafety(t *testing.T) {
	m := maas(t)
	res, err := m.Cascade("backend", 4000, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCompromised <= 1 {
		t.Error("cascade never spread")
	}
	if res.SafetyCriticalProb <= 0 {
		t.Error("backend entry never reached a safety-critical system (the §VI cascade risk)")
	}
	if res.SafetyCriticalProb > 0.5 {
		t.Errorf("cascade implausibly certain: %.3f", res.SafetyCriticalProb)
	}
}

func TestCascadeSensorEntryThreatensActuation(t *testing.T) {
	m := maas(t)
	res, err := m.Cascade("sense", 4000, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// sense → plan → act is a short path with moderate probabilities.
	if res.SafetyCriticalProb < 0.15 {
		t.Errorf("sensor entry reached safety-critical with p=%.3f, expected ≳0.25", res.SafetyCriticalProb)
	}
}

func TestHardeningReducesCascade(t *testing.T) {
	before, err := maas(t).Cascade("backend", 4000, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	hardened := maas(t)
	if _, err := hardened.Harden(0.3, "ciso"); err != nil {
		t.Fatal(err)
	}
	after, err := hardened.Cascade("backend", 4000, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if after.MeanCompromised >= before.MeanCompromised {
		t.Errorf("hardening did not reduce spread: %.2f → %.2f", before.MeanCompromised, after.MeanCompromised)
	}
	if after.SafetyCriticalProb >= before.SafetyCriticalProb {
		t.Errorf("hardening did not reduce safety risk: %.3f → %.3f", before.SafetyCriticalProb, after.SafetyCriticalProb)
	}
	unowned, _ := hardened.ResponsibilityGaps()
	if len(unowned) != 0 {
		t.Errorf("hardening left %d unowned links", len(unowned))
	}
}

func TestHardenValidation(t *testing.T) {
	m := maas(t)
	if _, err := m.Harden(0, "x"); err == nil {
		t.Error("factor 0 accepted")
	}
	if _, err := m.Harden(1.5, "x"); err == nil {
		t.Error("factor > 1 accepted")
	}
}

func TestCascadeValidation(t *testing.T) {
	m := maas(t)
	if _, err := m.Cascade("missing", 100, sim.NewRNG(1)); err == nil {
		t.Error("unknown entry accepted")
	}
	if _, err := m.Cascade("av", 0, sim.NewRNG(1)); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestCascadeDeterministicUnderSeed(t *testing.T) {
	a, err := maas(t).Cascade("hub", 1000, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := maas(t).Cascade("hub", 1000, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanCompromised != b.MeanCompromised || a.SafetyCriticalProb != b.SafetyCriticalProb {
		t.Error("same seed diverged")
	}
}

func TestDOTExport(t *testing.T) {
	m := maas(t)
	dot := m.DOT()
	for _, want := range []string{
		"digraph sos",
		`"maas" -> "av" [style=dashed`, // containment edge
		`"backend" -> "av"`,            // communication link
		"color=red",                    // unowned link highlighted
		"peripheries=2",                // safety-critical marker
		`label="Safety Functions`,      // node label
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if strings.Count(dot, "->") < len(m.Links())+len(m.Systems())-1 {
		t.Error("DOT edge count too low")
	}
}

func TestInterfaceKindStrings(t *testing.T) {
	for _, k := range []InterfaceKind{PhysicalPort, SensorInput, WirelessLink, BackendAPI, HumanInterface} {
		if s := k.String(); s == "" || s[0] == 'I' {
			t.Errorf("kind %d renders as %q", int(k), s)
		}
	}
}

// TestCascadePinned pins every fig9 cascade — the four entries on the
// baseline and the hardened model — at three seeds: the mean, the
// safety-critical probability, the RNG draws consumed and the number of
// systems ever reached. The values are what the map-based walk over
// the links produced before systems were interned to dense indices, so
// a change in edge order or draw order fails here.
func TestCascadePinned(t *testing.T) {
	const want = `42 backend false 3.009 0.1499 51929 12
42 backend true 1.2628 0.0031 25804 12
42 hub false 2.139 0.1005 30619 12
42 hub true 1.1211 0.0025 13840 12
42 passenger-os false 3.9481 0.2703 74908 12
42 passenger-os true 1.432 0.0187 40116 12
42 sense false 3.7775 0.3439 59295 12
42 sense true 1.404 0.025 24982 12
7919 backend false 2.9914 0.152 51824 12
7919 backend true 1.2804 0.0032 26245 12
7919 hub false 2.1581 0.1014 31060 12
7919 hub true 1.1256 0.0024 13910 12
7919 passenger-os false 3.9633 0.2743 75009 12
7919 passenger-os true 1.4433 0.02 40311 12
7919 sense false 3.7844 0.3466 59412 12
7919 sense true 1.4258 0.0259 25229 12
1 backend false 3.0534 0.1536 52532 12
1 backend true 1.2775 0.0036 26055 12
1 hub false 2.1905 0.1035 31371 12
1 hub true 1.1354 0.0027 14176 12
1 passenger-os false 3.9542 0.2697 74910 12
1 passenger-os true 1.4486 0.0184 40464 12
1 sense false 3.8357 0.3484 60079 12
1 sense true 1.4291 0.0276 25336 12
`
	var b strings.Builder
	for _, seed := range []int64{42, 7919, 1} {
		for _, entry := range []string{"backend", "hub", "passenger-os", "sense"} {
			for _, hardened := range []bool{false, true} {
				m := maas(t)
				if hardened {
					if _, err := m.Harden(0.3, "unified-security-owner"); err != nil {
						t.Fatal(err)
					}
				}
				rng := sim.NewRNG(seed)
				r, err := m.Cascade(entry, 10000, rng)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%d %s %v %v %v %d %d\n", seed, entry, hardened,
					r.MeanCompromised, r.SafetyCriticalProb, rng.Draws(), len(r.ReachedOnce))
			}
		}
	}
	if got := b.String(); got != want {
		t.Errorf("cascade results changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
