package core

import (
	"strings"
	"testing"

	"autosec/internal/sim"
)

// runReport runs one registry experiment on the process-wide pool, the
// budget of callers that bring none, and returns its report.
func runReport(id string, seed int64) (string, error) {
	r, err := RunExperimentResult(id, seed, RunOptions{Pool: sim.DefaultPool()})
	if err != nil {
		return "", err
	}
	return r.Report, nil
}

func TestRegistryHasAllPaperArtefacts(t *testing.T) {
	t.Parallel()
	want := []string{"fig1", "fig2", "fig3", "tab1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"exp-ca", "exp-collab", "exp-ids", "exp-access", "exp-ptp", "exp-v2x", "exp-ota", "exp-tara", "exp-vehicle", "exp-zc", "exp-stealth",
		"ablate-mac", "ablate-fv", "ablate-sts", "ablate-canal", "ablate-k", "ablate-ids", "ablate-scale"}
	got := map[string]bool{}
	for _, e := range Experiments() {
		got[e.ID] = true
		if e.Title == "" || e.Source == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	t.Parallel()
	if _, err := runReport("fig99", 1); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// TestAllExperimentsRun executes every experiment once and checks for
// the landmark strings that make the output a faithful regeneration.
func TestAllExperimentsRun(t *testing.T) {
	t.Parallel()
	landmarks := map[string][]string{
		"fig1":         {"physical", "collaboration", "attack paths", "synergy"},
		"fig2":         {"HRP", "LRP", "ghost-peak", "ED/LC"},
		"fig3":         {"zone controller", "baseline"},
		"tab1":         {"SECOC", "(D)TLS", "IPsec", "MACsec", "CANsec"},
		"fig4":         {"S1", "baseline"},
		"fig5":         {"S2-e2e", "S2-p2p"},
		"fig6":         {"S3", "S2-e2e", "S1"},
		"fig7":         {"brake-ctrl", "RELOCATE", "ROLLBACK"},
		"fig8":         {"heap-dump", "BREACH", "least-privilege"},
		"fig9":         {"level", "cascade", "security owner"},
		"exp-ca":       {"naive", "verified", "ghost"},
		"exp-collab":   {"insider", "redundancy", "cooperative", "self-interested"},
		"exp-ids":      {"isolate", "alert"},
		"exp-access":   {"GRANTED", "denied", "threshold"},
		"exp-ptp":      {"delay attack", "PTPsec", "localized"},
		"exp-v2x":      {"pseudonym", "revoked", "linkage"},
		"exp-ota":      {"forged", "downgrade", "ROLLBACK"},
		"exp-tara":     {"risk", "feasibility", "reduce (mandatory)", "aggregate"},
		"exp-vehicle":  {"cross-zone", "forgeries accepted: 0"},
		"exp-zc":       {"S2-p2p", "keyless", "plaintext"},
		"exp-stealth":  {"bulk", "low-and-slow", "incident"},
		"ablate-ids":   {"radius", "false-positive", "miss"},
		"ablate-scale": {"endpoints", "keys@ZC", "S2-p2p", "256"},
		"ablate-mac":   {"24", "128"},
		"ablate-fv":    {"window"},
		"ablate-sts":   {"pulses", "1024"},
		"ablate-canal": {"segments"},
		"ablate-k":     {"fakes-accepted"},
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(NewRunContext(42))
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(out) < 80 {
				t.Fatalf("%s output suspiciously short:\n%s", e.ID, out)
			}
			for _, lm := range landmarks[e.ID] {
				if !strings.Contains(out, lm) {
					t.Errorf("%s output missing %q:\n%s", e.ID, lm, out)
				}
			}
		})
	}
}

// TestExperimentsDeterministic ensures the same seed reproduces the same
// report byte for byte.
func TestExperimentsDeterministic(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig2", "fig6", "fig8", "exp-collab"} {
		a, err := runReport(id, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runReport(id, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s not deterministic under fixed seed", id)
		}
	}
}

// TestKeyExperimentClaims pins the qualitative claims the paper makes:
// who wins, and roughly by what margin.
func TestKeyExperimentClaims(t *testing.T) {
	t.Parallel()
	out, err := runReport("fig8", 42)
	if err != nil {
		t.Fatal(err)
	}
	// The undefended chain must breach and the all-defences row must not.
	if !strings.Contains(out, "— (breached)") {
		t.Error("fig8: incident configuration did not breach")
	}
	if !strings.Contains(out, "directory-enumeration") {
		t.Error("fig8: enumeration defence row missing")
	}

	out, err = runReport("fig2", 42)
	if err != nil {
		t.Fatal(err)
	}
	// Secure receiver rows should show 0-ish manipulation; naive ghost
	// row should show a majority. Landmarks suffice; the detailed
	// statistics are covered by package uwb tests.
	if !strings.Contains(out, "secure") || !strings.Contains(out, "naive") {
		t.Error("fig2: missing receiver rows")
	}
}
