package server

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"autosec/internal/config"
)

// registryConfig configures a daemon with the registry alone and no
// cache: enough to plan any request without touching the disk.
func registryConfig() config.Config {
	cfg := config.Default()
	cfg.ScenarioDir = ""
	cfg.Cache.Disabled = true
	return cfg
}

// TestPlanCampaignBounds pins the per-request bounds: a pool size or a
// grid beyond its constant is a 400 before anything is allocated, and
// requests at the bounds are still accepted.
func TestPlanCampaignBounds(t *testing.T) {
	t.Parallel()
	s, err := New(registryConfig())
	if err != nil {
		t.Fatal(err)
	}
	one := []string{"fig3"}
	count := func(n int) *int { return &n }
	cases := []struct {
		name    string
		req     CampaignRequest
		wantSub string
	}{
		{"jobs above bound", CampaignRequest{IDs: one, Jobs: 1 << 20}, "jobs must be in [0, 1024]"},
		{"seed_count above cell bound", CampaignRequest{IDs: one, SeedCount: count(1 << 17)}, "exceeds 65536 cells"},
		{"explicit seeds above cell bound", CampaignRequest{IDs: one, Seeds: make([]int64, maxCells+1)}, "exceeds"},
		{"registry grid above cell bound", CampaignRequest{SeedCount: count(maxCells/len(s.ns.Registry()) + 1)}, "exceeds"},
		{"deadline past a Duration", CampaignRequest{IDs: one, DeadlineMS: int(maxDeadlineMS + 1)}, "deadline_ms must be in [0, 9223372036854]"},
		{"deadline that wraps to -1ms", CampaignRequest{IDs: one, DeadlineMS: math.MaxInt64}, "deadline_ms"},
	}
	for _, tc := range cases {
		if _, err := s.planCampaign(tc.req); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantSub)
		}
	}

	p, err := s.planCampaign(CampaignRequest{IDs: one, Jobs: maxJobs, SeedCount: count(maxCells), DeadlineMS: int(maxDeadlineMS)})
	if err != nil {
		t.Fatalf("request at the bounds: %v", err)
	}
	if p.jobs != maxJobs || len(p.seeds) != maxCells || p.deadline != time.Duration(maxDeadlineMS)*time.Millisecond || p.deadline <= 0 {
		t.Errorf("plan at the bounds: jobs %d, %d seeds, deadline %v", p.jobs, len(p.seeds), p.deadline)
	}

	cfg := registryConfig()
	cfg.Jobs = maxJobs + 1
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "jobs") {
		t.Errorf("New with jobs above the bound: %v", err)
	}
}

// TestCampaignBodyBound posts a valid request padded just past
// maxBodyBytes: it must be refused as too large, and the same server
// must then answer a small request normally.
func TestCampaignBodyBound(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, testConfig(t))
	var b strings.Builder
	b.WriteString(`{"ids": ["fig3"], "seeds": [42`)
	for b.Len() <= maxBodyBytes {
		b.WriteString(", 42")
	}
	b.WriteString("]}")
	resp, data := postCampaign(t, ts, b.String())
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "too large") {
		t.Errorf("oversized body: %s\n%s", resp.Status, data)
	}

	resp, data = postCampaign(t, ts, `{"ids": ["fig3"], "seed_count": 1, "format": "text"}`)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(data), "campaign: ") {
		t.Errorf("small request after an oversized one: %s\n%s", resp.Status, data)
	}
}
