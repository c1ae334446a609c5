package campaign_test

// These tests drive the campaign pool against the real experiment
// registry to prove the registry and the sim kernel are safe to run
// concurrently (run with -race), and that the aggregate output is
// independent of the worker count on real reports, not just stubs.

import (
	"runtime"
	"testing"

	"autosec/internal/campaign"
	"autosec/internal/core"
	"autosec/internal/sim"
)

// registryPool is the replicate budget registryRun's runs share.
var registryPool = sim.NewWorkerPool(runtime.GOMAXPROCS(0))

// registryRun runs a registry experiment through the typed entry point
// the CLI and the daemon use, with replicate loops on registryPool.
func registryRun(id string, seed int64) (string, []sim.Metric, error) {
	r, err := core.RunExperimentResult(id, seed, core.RunOptions{Pool: registryPool})
	if err != nil {
		return "", nil, err
	}
	return r.Report, r.Metrics, nil
}

// TestConcurrentRunExperimentAllIDs fans every registry experiment out
// over an oversubscribed pool at once. Any shared package-level state in
// internal/core or internal/sim would surface here under -race.
func TestConcurrentRunExperimentAllIDs(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full-registry campaign in -short mode")
	}
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	res, err := campaign.Run(campaign.Spec{
		IDs:      ids,
		Seeds:    []int64{42},
		Jobs:     8,
		RunTyped: registryRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Cells {
		if res.Cells[i].Report == "" {
			t.Errorf("%s produced an empty report under concurrency", res.Cells[i].ID)
		}
	}
}

// TestCampaignJobsIndependenceRealExperiments checks the acceptance
// property end-to-end on a fast subset of real experiments: serial and
// parallel campaigns render byte-identical aggregate tables, and the
// determinism self-check stays quiet.
func TestCampaignJobsIndependenceRealExperiments(t *testing.T) {
	t.Parallel()
	ids := []string{"fig4", "fig6", "exp-ids", "exp-vehicle", "exp-v2x", "ablate-fv"}
	render := func(jobs int) string {
		res, err := campaign.Run(campaign.Spec{
			IDs:      ids,
			Seeds:    campaign.Seeds(42, 3),
			Jobs:     jobs,
			Recheck:  0.5,
			RunTyped: registryRun,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rechecked() == 0 {
			t.Fatal("self-check rechecked no cells")
		}
		return res.RenderSummary()
	}
	if serial, parallel := render(1), render(8); serial != parallel {
		t.Errorf("aggregate tables depend on worker count:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}
