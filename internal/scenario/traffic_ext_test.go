package scenario_test

import (
	"testing"

	_ "autosec/internal/ext/demo" // the drop-in jam attack and noop-mac suite
	"autosec/internal/scenario"
	"autosec/internal/secchan/suites"
)

// trafficSpecs loads every traffic-interpreted scenario of a corpus
// directory: all but the kill chain, which does not run the loop.
func trafficSpecs(t *testing.T, dir string) []*scenario.Spec {
	t.Helper()
	specs, err := scenario.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*scenario.Spec
	for _, sp := range specs {
		if sp.Attacker.Type != scenario.AttackKillChain {
			out = append(out, sp)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no traffic scenario under %s", dir)
	}
	return out
}

// TestTrafficMatchesReference pins the traffic interpreter to the
// original loop on every traffic scenario of the corpus and of the
// drop-in demo corpus, at the corpus golden's seed and a held-out one.
func TestTrafficMatchesReference(t *testing.T) {
	t.Parallel()
	specs := append(trafficSpecs(t, "../../scenarios"), trafficSpecs(t, "../ext/demo/scenario")...)
	for _, sp := range specs {
		for _, seed := range []int64{42, 7919} {
			if err := scenario.CheckTrafficMatchesReference(sp, seed); err != nil {
				t.Error(err)
			}
		}
	}
}

// FuzzTrafficEquivalence fuzzes the seed, the suite, the attacker type
// (drop-ins included), the topology, the IDS switch and the attack's
// every, offset and rate, and checks the interpreter against the
// original loop.
func FuzzTrafficEquivalence(f *testing.F) {
	f.Add(int64(42), uint8(0), uint8(0), uint8(2), uint8(3), true, uint8(2), uint16(8), uint8(4))
	f.Add(int64(7919), uint8(1), uint8(3), uint8(4), uint8(6), true, uint8(1), uint16(1), uint8(16))
	f.Add(int64(1), uint8(2), uint8(5), uint8(1), uint8(1), false, uint8(64), uint16(512), uint8(1))
	f.Add(int64(-3), uint8(5), uint8(6), uint8(3), uint8(2), true, uint8(3), uint16(40), uint8(7))
	suiteNames := suites.Suites.Names()
	var attacks []string
	for _, name := range scenario.Attacks.Names() {
		if name != scenario.AttackKillChain {
			attacks = append(attacks, name)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, suite, attack, zones, endpoints uint8, idsOn bool, every uint8, offset uint16, rate uint8) {
		sp := scenario.DefaultSpec("fuzz-traffic")
		sp.Protocol.Suite = suiteNames[int(suite)%len(suiteNames)]
		sp.Attacker.Type = attacks[int(attack)%len(attacks)]
		sp.World.Zones = 1 + int(zones)%4
		sp.World.EndpointsPerZone = 1 + int(endpoints)%6
		sp.Attacker.Zone = int(seed&0xff) % sp.World.Zones
		sp.IDS.Enabled = idsOn
		sp.Attacker.Every = 1 + int(every)%64
		sp.Attacker.Offset = 1 + int(offset)%512
		sp.Attacker.Rate = 1 + int(rate)%16
		if err := sp.Validate(); err != nil {
			t.Fatalf("fuzzed spec invalid: %v", err)
		}
		if err := scenario.CheckTrafficMatchesReference(sp, seed); err != nil {
			t.Fatal(err)
		}
	})
}
