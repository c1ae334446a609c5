package scenario

import (
	"fmt"
	"strings"
	"testing"

	"autosec/internal/core"
	"autosec/internal/killchain"
	"autosec/internal/secchan/suites"
)

// TestRegisteredNamesRoundTripThroughDSL is the cross-kind property
// test of the extension registry: EVERY registered suite, attack, and
// defence name — not a hardcoded list — survives a full scenario.ini
// round trip (marshal → parse) and compiles into a runnable
// experiment. A drop-in registered from any linked-in package is
// covered automatically, so "registered" and "stageable from the DSL"
// can never drift apart.
func TestRegisteredNamesRoundTripThroughDSL(t *testing.T) {
	t.Parallel()

	roundTrip := func(t *testing.T, sp *Spec) *Spec {
		t.Helper()
		got, err := Parse(sp.MarshalINI())
		if err != nil {
			t.Fatalf("parse after marshal: %v", err)
		}
		if _, err := Compile(got); err != nil {
			t.Fatalf("compile: %v", err)
		}
		return got
	}

	for _, name := range suites.Suites.Names() {
		t.Run("suite/"+name, func(t *testing.T) {
			sp := DefaultSpec("rt-suite")
			sp.Protocol.Suite = name
			if got := roundTrip(t, sp); got.Protocol.Suite != name {
				t.Errorf("suite %q became %q", name, got.Protocol.Suite)
			}
		})
	}

	for _, name := range Attacks.Names() {
		t.Run("attack/"+name, func(t *testing.T) {
			sp := DefaultSpec("rt-attack")
			sp.Attacker.Type = name
			if name == AttackKillChain {
				sp.KillChain.Defences = []string{"least-privilege"}
			}
			if got := roundTrip(t, sp); got.Attacker.Type != name {
				t.Errorf("attack %q became %q", name, got.Attacker.Type)
			}
		})
	}

	for _, name := range killchain.DefenceNames() {
		t.Run("defence/"+name, func(t *testing.T) {
			sp := DefaultSpec("rt-defence")
			sp.Attacker.Type = AttackKillChain
			sp.KillChain.Defences = []string{name}
			got := roundTrip(t, sp)
			if len(got.KillChain.Defences) != 1 || got.KillChain.Defences[0] != name {
				t.Errorf("defences %v survived as %v", sp.KillChain.Defences, got.KillChain.Defences)
			}
		})
	}
}

// TestRegisteredAttacksRun goes one step past compiling: every
// registered attack behaviour actually executes a (tiny) replicate
// set without error and reports under the scenario's name.
func TestRegisteredAttacksRun(t *testing.T) {
	t.Parallel()
	for _, name := range Attacks.Names() {
		t.Run(name, func(t *testing.T) {
			sp := DefaultSpec(fmt.Sprintf("run-%s", strings.ToLower(name)))
			sp.Attacker.Type = name
			sp.Run.Replicates = 1
			if name == AttackKillChain {
				sp.KillChain.Defences = []string{"secret-scrubbing"}
			}
			e, err := Compile(sp)
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Run(core.NewRunContext(7))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, sp.Name) {
				t.Errorf("report does not name scenario %q:\n%s", sp.Name, out)
			}
		})
	}
}
