package server

import (
	"bytes"
	"testing"
)

// FuzzCampaignRequest drives arbitrary bodies through the handler's
// strict decoder and planCampaign (it never runs a campaign). Nothing
// may panic, and every accepted plan must be within the request bounds
// with a non-empty grid of resolvable ids.
func FuzzCampaignRequest(f *testing.F) {
	s, err := New(registryConfig())
	if err != nil {
		f.Fatal(err)
	}
	// The request bodies docs/DAEMON.md shows and the daemon smoke
	// script posts.
	for _, body := range []string{
		`{}`,
		`{"ids": ["fig3", "scn-gen-0042"], "corpus": false, "seeds": [7, 11], "seed_base": 42, "seed_count": 8,
		  "jobs": 4, "recheck": 0.25, "cache": true, "include_reports": false, "timings": false,
		  "deadline_ms": 0, "format": "ndjson"}`,
		`{"ids": ["fig3", "exp-ids", "exp-ota"], "seed_count": 1, "format": "text"}`,
		`{"seed_count": 2, "jobs": 1, "format": "text"}`,
		`{"seed_count": 2, "jobs": 8, "format": "text"}`,
		`{"corpus": true, "seeds": [42, 43], "include_reports": true}`,
		`{"seed_count": 1, "timings": true}`,
		`{"corpus": true, "seed_count": 2, "jobs": 8, "format": "text"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeCampaignRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		p, err := s.planCampaign(req)
		if err != nil {
			return
		}
		if p.jobs < 1 || p.jobs > maxJobs {
			t.Errorf("accepted jobs %d outside [1, %d]", p.jobs, maxJobs)
		}
		if n := len(p.ids) * len(p.seeds); n < 1 || n > maxCells {
			t.Errorf("accepted a grid of %d cells, want [1, %d]", n, maxCells)
		}
		if !(p.recheck >= 0 && p.recheck <= 1) {
			t.Errorf("accepted recheck %v outside [0, 1]", p.recheck)
		}
		for _, id := range p.ids {
			if _, err := s.ns.Lookup(id); err != nil {
				t.Errorf("accepted id %q does not resolve: %v", id, err)
			}
		}
	})
}
