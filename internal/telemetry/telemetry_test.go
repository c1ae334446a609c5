package telemetry

import (
	"strings"
	"testing"

	"autosec/internal/sim"
)

func newCloud(cfg Config) *Cloud {
	return NewCloud(cfg, 50, 20, sim.NewRNG(1))
}

func TestFleetConstruction(t *testing.T) {
	t.Parallel()
	c := newCloud(WorstCase())
	if c.Fleet() != 50 {
		t.Errorf("fleet %d", c.Fleet())
	}
	if n := (Records{c.fleet}).Len(); n != 1000 {
		t.Errorf("records %d", n)
	}
}

func TestProbeUnknownPath404(t *testing.T) {
	t.Parallel()
	c := newCloud(WorstCase())
	if status, _ := c.Probe("/nonexistent"); status != 404 {
		t.Errorf("status %d", status)
	}
}

func TestProbeHeapDumpExposure(t *testing.T) {
	t.Parallel()
	c := newCloud(WorstCase())
	status, body := c.Probe("/actuator/heapdump")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	if !strings.Contains(body, "accessKey") {
		t.Error("exposed dump should contain the credential")
	}

	hardened := newCloud(Config{HeapDumpExposed: false})
	if status, _ := hardened.Probe("/actuator/heapdump"); status == 200 {
		t.Error("disabled heap dump still served")
	}
}

func TestHeapDumpWithoutSecretsInMemory(t *testing.T) {
	t.Parallel()
	cfg := WorstCase()
	cfg.SecretsInMemory = false
	c := newCloud(cfg)
	_, body := c.Probe("/actuator/heapdump")
	if strings.Contains(body, "accessKey") {
		t.Error("scrubbed process still leaks credentials")
	}
}

func TestEnumerationDefence(t *testing.T) {
	t.Parallel()
	open := newCloud(WorstCase())
	if got := open.EnumeratePaths(64); len(got) < 5 {
		t.Errorf("undefended enumeration found only %d paths", len(got))
	}
	cfg := WorstCase()
	cfg.EnumerationDefended = true
	defended := newCloud(cfg)
	if got := defended.EnumeratePaths(64); len(got) > 1 {
		t.Errorf("defended enumeration leaked %d paths", len(got))
	}
}

func TestEnumerationBudget(t *testing.T) {
	t.Parallel()
	c := newCloud(WorstCase())
	if got := c.EnumeratePaths(2); len(got) != 2 {
		t.Errorf("budget ignored: %d", len(got))
	}
}

func TestMintTokenScopes(t *testing.T) {
	t.Parallel()
	c := newCloud(WorstCase())
	if _, err := c.MintToken("wrong", ""); err == nil {
		t.Error("invalid key minted a token")
	}
	tok, err := c.MintToken("AKIA-MASTER-0xFLEET", "")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.Fetch(tok)
	if err != nil {
		t.Fatal(err)
	}
	if total := (Records{c.fleet}).Len(); recs.Len() != total {
		t.Errorf("fleet token fetched %d of %d", recs.Len(), total)
	}
}

func TestLeastPrivilegeBlocksFleetScope(t *testing.T) {
	t.Parallel()
	cfg := WorstCase()
	cfg.MasterKeyOverPrivileged = false
	c := newCloud(cfg)
	if _, err := c.MintToken("AKIA-MASTER-0xFLEET", ""); err == nil {
		t.Error("fleet-wide token minted despite least privilege")
	}
	// Single-VIN scope still works (the app needs it to function).
	tok, err := c.MintToken("AKIA-MASTER-0xFLEET", "WVWZZZ0000000")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.Fetch(tok)
	if err != nil {
		t.Fatal(err)
	}
	if recs.Len() != 20 {
		t.Errorf("single-VIN fetch got %d", recs.Len())
	}
}

func TestMintTokenUnknownVIN(t *testing.T) {
	t.Parallel()
	c := newCloud(WorstCase())
	if _, err := c.MintToken("AKIA-MASTER-0xFLEET", "UNKNOWN"); err == nil {
		t.Error("unknown VIN scope accepted")
	}
}

func TestFetchInvalidToken(t *testing.T) {
	t.Parallel()
	c := newCloud(WorstCase())
	if _, err := c.Fetch("junk"); err == nil {
		t.Error("invalid token accepted")
	}
}

func TestLocationPrecision(t *testing.T) {
	t.Parallel()
	precise := newCloud(WorstCase())
	tok, _ := precise.MintToken("AKIA-MASTER-0xFLEET", "")
	recs, _ := precise.Fetch(tok)
	if p := recs.PrecisionM(); p != 10 {
		t.Errorf("precise precision %v", p)
	}
	cfg := WorstCase()
	cfg.CoarseLocation = true
	coarse := newCloud(cfg)
	tok2, _ := coarse.MintToken("AKIA-MASTER-0xFLEET", "")
	recs2, _ := coarse.Fetch(tok2)
	if p := recs2.PrecisionM(); p != 1000 {
		t.Errorf("coarse precision %v", p)
	}
	if (Records{}).PrecisionM() != 0 {
		t.Error("empty precision")
	}
}
