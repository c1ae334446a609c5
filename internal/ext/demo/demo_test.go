package demo

import (
	"strings"
	"testing"

	"autosec/internal/core"
	"autosec/internal/scenario"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
)

// TestDropInsResolveByName pins the one-file drop-in property: with
// this package linked in, both demo extensions resolve through the
// same registries the built-ins use.
func TestDropInsResolveByName(t *testing.T) {
	entry, err := suites.Lookup("noop-mac")
	if err != nil {
		t.Fatalf("noop-mac not registered: %v", err)
	}
	if entry.Props.Replay || entry.Props.Conf || !entry.Props.Auth {
		t.Errorf("noop-mac properties = %+v, want auth-only", entry.Props)
	}
	if _, err := scenario.Attacks.Lookup("jam"); err != nil {
		t.Fatalf("jam not registered: %v", err)
	}
}

// TestDropInsStayOutOfCanonicalLists pins the goldens-safety contract:
// demo registrations claim no "core"/"table1" capability, so the
// canonical ordered lists that feed byte-pinned outputs are exactly
// what they are without this package.
func TestDropInsStayOutOfCanonicalLists(t *testing.T) {
	for _, e := range suites.Registry() {
		if e.Name == "noop-mac" {
			t.Error("noop-mac leaked into the Table I registry")
		}
	}
	for _, name := range scenario.AttackTypes() {
		if name == "jam" {
			t.Error("jam leaked into the canonical attack-type list")
		}
	}
	_, m, ok := suites.Suites.Get("noop-mac")
	if !ok || len(m.Caps) != 0 {
		t.Errorf("noop-mac caps = %v, want none (ok=%v)", m.Caps, ok)
	}
}

// TestNoopMACRoundTrip exercises the demo suite directly: protect then
// verify round-trips, tampering fails, and — the deliberate weakness —
// anyone can mint a valid tag without a key.
func TestNoopMACRoundTrip(t *testing.T) {
	s, err := newNoopMAC(secchan.Params{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("zonal telemetry frame")
	wire, err := s.Protect(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(payload)+tagLen {
		t.Fatalf("wire length %d, want payload+%d", len(wire), tagLen)
	}
	got, err := s.Verify(wire)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("verify = %q, %v", got, err)
	}
	tampered := append([]byte(nil), wire...)
	tampered[0] ^= 0x01
	if _, err := s.Verify(tampered); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("tampered wire verified: %v", err)
	}
	if _, err := s.Verify(wire[:tagLen-1]); err == nil {
		t.Error("short wire verified")
	}

	// The unkeyed weakness: a fresh suite instance (no shared state, no
	// key) verifies another instance's wire.
	other, _ := newNoopMAC(secchan.Params{})
	if _, err := other.Verify(wire); err != nil {
		t.Errorf("unkeyed tag not verifiable cross-instance: %v", err)
	}
}

// TestDemoScenariosLoadAndCompile walks the package's own scenario
// corpus through the standard load/compile path — the same path the
// daemon takes at startup when pointed at this directory.
func TestDemoScenariosLoadAndCompile(t *testing.T) {
	specs, err := scenario.LoadDir("scenario")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("loaded %d demo scenarios, want 2", len(specs))
	}
	for _, sp := range specs {
		e, err := scenario.Compile(sp)
		if err != nil {
			t.Fatalf("compile %s: %v", sp.Name, err)
		}
		out, err := e.Run(core.NewRunContext(42))
		if err != nil {
			t.Fatalf("run %s: %v", sp.Name, err)
		}
		if !strings.Contains(out, sp.Name) {
			t.Errorf("%s report does not name the scenario:\n%s", sp.Name, out)
		}
	}
}
