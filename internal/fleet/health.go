package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// WorkerHealth is the handshake document a worker serves at
// GET /api/v1/health (docs/DAEMON.md). CodeVersion is the content hash
// of the worker's binary — the part of every cell cache key that makes
// cross-worker cache reuse sound — and Jobs/GOMAXPROCS advertise the
// worker's compute capacity for chunk-assignment weighting.
type WorkerHealth struct {
	Status      string `json:"status"`
	CodeVersion string `json:"code_version"`
	Experiments int    `json:"experiments"`
	Scenarios   int    `json:"scenarios"`
	Cache       string `json:"cache"`
	Jobs        int    `json:"jobs"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

// Handshake probes one worker's health endpoint.
func Handshake(ctx context.Context, client *http.Client, base string) (WorkerHealth, error) {
	var h WorkerHealth
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/api/v1/health", nil)
	if err != nil {
		return h, fmt.Errorf("fleet: worker %s: %w", base, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return h, fmt.Errorf("fleet: worker %s: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return h, fmt.Errorf("fleet: worker %s: health: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("fleet: worker %s: health: HTTP %d: %s", base, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("fleet: worker %s: health: %w", base, err)
	}
	if h.Status != "ok" {
		return h, fmt.Errorf("fleet: worker %s: health status %q", base, h.Status)
	}
	if h.CodeVersion == "" {
		return h, fmt.Errorf("fleet: worker %s: health reports no code_version", base)
	}
	return h, nil
}

// HandshakeAll probes every worker and enforces the fleet's version
// invariant: all workers must run the identical binary. Shared
// content-addressed cache keys include the code version, so a mixed
// fleet would silently never share results — and worse, the merged
// grid would mix outputs of two different implementations. One code
// version also means one extension set, since drop-ins register at
// init in the binary the version hashes.
func HandshakeAll(ctx context.Context, client *http.Client, workers []string) ([]WorkerHealth, error) {
	healths := make([]WorkerHealth, len(workers))
	for i, w := range workers {
		h, err := Handshake(ctx, client, w)
		if err != nil {
			return nil, err
		}
		healths[i] = h
	}
	for i := 1; i < len(healths); i++ {
		if healths[i].CodeVersion != healths[0].CodeVersion {
			var b strings.Builder
			fmt.Fprintf(&b, "fleet: mixed code versions across workers (cache keying and determinism require one binary):")
			for j, w := range workers {
				fmt.Fprintf(&b, "\n  %s  code_version %s", w, healths[j].CodeVersion)
			}
			return nil, fmt.Errorf("%s", b.String())
		}
	}
	return healths, nil
}
