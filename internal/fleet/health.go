package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"autosec/internal/server"
)

// handshake probes one worker's health endpoint (docs/DAEMON.md). The
// code version names the cache directory a worker's entries live in,
// which makes cross-worker cache reuse sound, and Jobs/GOMAXPROCS
// advertise the worker's compute capacity for chunk-assignment
// weighting.
func handshake(ctx context.Context, client *http.Client, base string) (server.Health, error) {
	var h server.Health
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
// invariant: all workers must run the identical binary. A shared cache
// keeps each code version's entries in a directory of their own, so a
// mixed fleet would silently never share results — and worse, the
// merged grid would mix outputs of two different implementations. One code
// version also means one extension set, since drop-ins register at
// init in the binary the version hashes.
func HandshakeAll(ctx context.Context, client *http.Client, workers []string) ([]server.Health, error) {
	healths := make([]server.Health, len(workers))
	for i, w := range workers {
		h, err := handshake(ctx, client, w)
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
