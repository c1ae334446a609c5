package server

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"autosec/internal/core"
	"autosec/internal/ext"
	"autosec/internal/scenario"
	"autosec/internal/sim"
)

// panicAttack is a drop-in attack registered only in this test binary:
// its first attacked step panics, standing in for a faulty extension.
type panicAttack struct{}

func (panicAttack) Deliver(*scenario.TrafficStep) bool { panic("panic-attack deliver") }

func (panicAttack) Inject(*scenario.TrafficStep) {}

func init() {
	scenario.Attacks.Register(ext.Meta{
		Name:        "panic-test",
		Description: "test fixture: panics on the first attacked step",
		Paper:       "none — test fixture",
		Rank:        100,
	}, scenario.AttackSpec{New: func(*scenario.Spec) scenario.AttackBehaviour { return panicAttack{} }})
}

// TestPanickingCellFailsAlone runs a scenario whose attack panics
// beside a registry cell: the panicking cell's stream event carries the
// panic as its error, the registry cell matches a direct run, and the
// daemon answers the next request.
func TestPanickingCellFailsAlone(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t)
	sp := scenario.DefaultSpec("boom")
	sp.Attacker.Type = "panic-test"
	folder := filepath.Join(cfg.ScenarioDir, sp.Name)
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, scenario.SpecFile), sp.MarshalINI(), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, cfg)

	resp, data := postCampaign(t, ts,
		`{"ids": ["scn-boom", "fig3"], "seed_base": 42, "seed_count": 1, "jobs": 2, "include_reports": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s\n%s", resp.Status, data)
	}
	types, cells := decodeStream(t, data)
	if len(cells) != 2 || types[len(types)-1] != "error" {
		t.Fatalf("stream: %v with %d cells, want 2 cells and a terminal error", types, len(cells))
	}
	if want := "replicate 0: panic: panic-attack deliver"; cells[0].Error != want {
		t.Errorf("panicking cell error = %q, want %q", cells[0].Error, want)
	}
	direct, err := core.RunExperimentResult("fig3", 42, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := cells[1]; c.Error != "" || c.Report != direct.Report || !sim.MetricsEqual(c.Metrics, direct.Metrics) {
		t.Errorf("fig3 beside the panicking cell diverged from a direct run (error %q)", c.Error)
	}

	resp, data = postCampaign(t, ts, `{"ids": ["fig3"], "seed_count": 1}`)
	if types, _ := decodeStream(t, data); resp.StatusCode != http.StatusOK || types[len(types)-1] != "done" {
		t.Fatalf("next request: status %s, stream %v", resp.Status, types)
	}
}
