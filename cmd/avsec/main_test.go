package main

import (
	"os"
	"path/filepath"
	"testing"

	"autosec/internal/campaign"
	"autosec/internal/scenario"
	"autosec/internal/sim"
)

// writeScenario materialises one spec as dir/<name>/scenario.ini.
func writeScenario(t *testing.T, dir string, sp *scenario.Spec) {
	t.Helper()
	folder := filepath.Join(dir, sp.Name)
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, scenario.SpecFile), sp.MarshalINI(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignScenarioCellsJobsInvariant pins the corpus-golden
// contract at the aggregation layer: a campaign over scenario cells
// renders byte-identical summaries at -jobs 1 and -jobs 4.
func TestCampaignScenarioCellsJobsInvariant(t *testing.T) {
	dir := t.TempDir()
	for _, typ := range []string{scenario.AttackReplay, scenario.AttackFlood, scenario.AttackKillChain} {
		sp := scenario.DefaultSpec("cell-" + typ)
		sp.Attacker.Type = typ
		sp.Title = scenario.AutoTitle(sp)
		writeScenario(t, dir, sp)
	}
	ns, err := scenario.LoadNamespace(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := ns.Select(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	render := func(jobs int) string {
		pool := sim.NewWorkerPool(jobs)
		res, err := campaign.Run(campaign.Spec{
			IDs:      ids,
			Seeds:    campaign.Seeds(42, 2),
			Pool:     pool,
			RunTyped: ns.Typed(pool),
			CostHint: ns.Cost,
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return res.RenderSummary()
	}
	if a, b := render(1), render(4); a != b {
		t.Error("campaign summary over scenario cells differs between -jobs 1 and -jobs 4")
	}
}
