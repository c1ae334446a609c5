// Package telemetry models the fleet telemetry cloud of the paper's §V
// — the CARIAD-style backend whose breach the paper analyzes: vehicles
// reporting geolocation and diagnostics into a cloud store fronted by a
// web API, an IAM token service, and the misconfiguration classes that
// formed the kill chain of Fig. 8 (exposed heap-dump endpoint,
// credentials in process memory, an over-privileged master key), plus
// the hardening switches that break each link.
//
// Exercised by experiments fig8 and exp-stealth.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"autosec/internal/sim"
)

// Config holds the deployment's security posture. Every field models a
// real class of defect (true = vulnerable) or defence.
type Config struct {
	// HeapDumpExposed leaves the framework's debug heap-dump endpoint
	// reachable in production.
	HeapDumpExposed bool
	// SecretsInMemory keeps long-lived cloud credentials in the
	// application heap (no scrubbing / external secret store).
	SecretsInMemory bool
	// MasterKeyOverPrivileged lets the telemetry app's key mint access
	// tokens for *any* user (no least-privilege scoping).
	MasterKeyOverPrivileged bool
	// EnumerationDefended rate-limits and uniformly answers unknown
	// paths, defeating directory brute-forcing.
	EnumerationDefended bool
	// CoarseLocation stores geolocation truncated to ~1 km (data
	// minimization); precise data never exists to steal.
	CoarseLocation bool
}

// WorstCase returns the configuration matching the incident: everything
// vulnerable.
func WorstCase() Config {
	return Config{HeapDumpExposed: true, SecretsInMemory: true, MasterKeyOverPrivileged: true}
}

// Hardened returns the fully defended configuration.
func Hardened() Config {
	return Config{EnumerationDefended: true, CoarseLocation: true}
}

// Cloud is the telemetry backend.
type Cloud struct {
	cfg Config
	// fleet holds one vehicle per car, in VIN order; byVIN indexes it.
	fleet []vehicle
	byVIN map[string]int
	// masterKey is the application's IAM credential.
	masterKey string
	// issued tracks minted tokens: token → VIN scope ("" = all).
	issued map[string]string
	paths  []string

	// monitoring & audit state (see monitor.go).
	monitor *Monitor
	events  []AccessEvent
	step    int
}

// vehicle is one car's stored telemetry: its identity, formatted once,
// and its geolocation history as a window of the cloud's lat and lon
// columns. Point p was reported at p·3600 s.
type vehicle struct {
	vin, owner, email string
	lat, lon          []float64
}

// NewCloud builds a backend with a synthetic fleet of the given size.
// Each vehicle gets a months-long geolocation history (scaled to
// pointsPerVehicle).
func NewCloud(cfg Config, vehicles, pointsPerVehicle int, rng *sim.RNG) *Cloud {
	c := &Cloud{
		cfg:       cfg,
		fleet:     make([]vehicle, vehicles),
		byVIN:     make(map[string]int, vehicles),
		masterKey: "AKIA-MASTER-0xFLEET",
		issued:    make(map[string]string),
		paths: []string{
			"/api/v1/telemetry", "/api/v1/vehicles", "/api/v1/health",
			"/actuator", "/actuator/env", "/actuator/heapdump",
		},
	}
	// One backing array holds both columns of every vehicle, then the
	// normals of one vehicle's points, drawn la, lo per point.
	n := pointsPerVehicle
	cols := make([]float64, (2*vehicles+2)*n)
	col := func(k int) []float64 { return cols[k*n : (k+1)*n : (k+1)*n] }
	norm := cols[2*vehicles*n:]
	for i := range c.fleet {
		owner := "owner-" + strconv.Itoa(i)
		v := &c.fleet[i]
		v.vin, v.owner, v.email = fmt.Sprintf("WVWZZZ%07d", i), owner, owner+"@example.com"
		v.lat, v.lon = col(2*i), col(2*i+1)
		c.byVIN[v.vin] = i
		lat := 48.0 + rng.Float64()*4 // somewhere in central Europe
		lon := 8.0 + rng.Float64()*6
		rng.NormFill(norm)
		for p := 0; p < n; p++ {
			la, lo := lat+norm[2*p]*0.05, lon+norm[2*p+1]*0.05
			if cfg.CoarseLocation {
				la = math.Round(la*100) / 100 // ~1 km grid
				lo = math.Round(lo*100) / 100
			}
			v.lat[p], v.lon[p] = la, lo
		}
	}
	return c
}

// Config exposes the posture (read-only copy).
func (c *Cloud) Config() Config { return c.cfg }

// Fleet returns the number of vehicles.
func (c *Cloud) Fleet() int { return len(c.fleet) }

// VINs returns the fleet's vehicle identifiers. In the breach scenario
// the attacker obtains this list from the same heap dump that leaked
// the credentials (session objects reference active VINs).
func (c *Cloud) VINs() []string {
	out := make([]string, len(c.fleet))
	for i := range c.fleet {
		out[i] = c.fleet[i].vin
	}
	return out
}

// --- the web surface the attacker probes ---

// Probe answers an unauthenticated HTTP-style request for a path. It
// returns a status code and a body snippet.
func (c *Cloud) Probe(path string) (int, string) {
	known := false
	for _, p := range c.paths {
		if p == path {
			known = true
			break
		}
	}
	if !known {
		return 404, ""
	}
	switch {
	case path == "/actuator/heapdump":
		if !c.cfg.HeapDumpExposed {
			return 403, "forbidden"
		}
		return 200, c.heapDump()
	case strings.HasPrefix(path, "/actuator"):
		if !c.cfg.HeapDumpExposed {
			return 403, "forbidden"
		}
		return 200, "spring-boot actuator index"
	case strings.HasPrefix(path, "/api/"):
		return 401, "token required"
	}
	return 404, ""
}

// EnumeratePaths models a gobuster run with the given wordlist budget:
// it returns the discoverable paths. With enumeration defences on, the
// scan learns nothing beyond the public API root.
func (c *Cloud) EnumeratePaths(budget int) []string {
	if c.cfg.EnumerationDefended {
		return []string{"/api/v1/telemetry"}
	}
	// A realistic wordlist finds the framework paths quickly; the
	// budget caps how many are revealed.
	out := append([]string(nil), c.paths...)
	sort.Strings(out)
	if budget < len(out) {
		out = out[:budget]
	}
	return out
}

// heapDump renders the process memory. If secrets live in memory, the
// IAM master key is in there.
func (c *Cloud) heapDump() string {
	var b strings.Builder
	b.WriteString("JAVA HPROF 1.0.2\n...thousands of objects...\n")
	b.WriteString("com.fleet.telemetry.Session{user=svc-telemetry}\n")
	if c.cfg.SecretsInMemory {
		fmt.Fprintf(&b, "com.fleet.iam.Credentials{accessKey=%q}\n", c.masterKey)
	}
	b.WriteString("...more objects...\n")
	return b.String()
}

// MintToken exchanges an IAM credential for an access token scoped to a
// VIN ("" requests fleet-wide scope). Fleet-wide scope requires the
// master key to be over-privileged.
func (c *Cloud) MintToken(iamKey, scopeVIN string) (string, error) {
	if iamKey != c.masterKey {
		return "", fmt.Errorf("telemetry: invalid IAM credential")
	}
	if scopeVIN == "" && !c.cfg.MasterKeyOverPrivileged {
		return "", fmt.Errorf("telemetry: key not authorized for fleet-wide scope")
	}
	if scopeVIN != "" {
		if _, ok := c.byVIN[scopeVIN]; !ok {
			return "", fmt.Errorf("telemetry: unknown VIN %s", scopeVIN)
		}
	}
	tok := fmt.Sprintf("tok-%d", len(c.issued)+1)
	c.issued[tok] = scopeVIN
	c.recordEvent(AccessEvent{Kind: "mint", FleetScope: scopeVIN == ""})
	return tok, nil
}

// Fetch returns the records readable under a token: one vehicle's, or
// the whole fleet's for a fleet-scope token. The view shares the
// cloud's store; nothing is copied.
func (c *Cloud) Fetch(token string) (Records, error) {
	scope, ok := c.issued[token]
	if !ok {
		return Records{}, fmt.Errorf("telemetry: invalid token")
	}
	recs := Records{c.fleet}
	if scope != "" {
		i := c.byVIN[scope]
		recs = Records{c.fleet[i : i+1]}
	}
	c.recordEvent(AccessEvent{Kind: "fetch", FleetScope: scope == "", Records: recs.Len()})
	return recs, nil
}

// Records is a read-only view of stored telemetry: every data point of
// a run of vehicles.
type Records struct {
	vehicles []vehicle
}

// Len returns the number of data points.
func (r Records) Len() int {
	n := 0
	for i := range r.vehicles {
		n += len(r.vehicles[i].lat)
	}
	return n
}

// Vehicles returns the number of distinct vehicles with at least one
// data point.
func (r Records) Vehicles() int {
	n := 0
	for i := range r.vehicles {
		if len(r.vehicles[i].lat) > 0 {
			n++
		}
	}
	return n
}

// PersonalData reports whether any data point carries the owner's name
// or email.
func (r Records) PersonalData() bool {
	for i := range r.vehicles {
		v := &r.vehicles[i]
		if len(v.lat) > 0 && (v.owner != "" || v.email != "") {
			return true
		}
	}
	return false
}

// PrecisionM estimates the positional precision of the records in
// metres: coarse storage yields ~1 km, precise storage ~10 m, and no
// records 0. It inspects the decimal structure of stored latitudes.
func (r Records) PrecisionM() float64 {
	if r.Len() == 0 {
		return 0
	}
	for i := range r.vehicles {
		for _, la := range r.vehicles[i].lat {
			if math.Abs(la*100-math.Round(la*100)) > 1e-9 {
				return 10
			}
		}
	}
	return 1000
}
