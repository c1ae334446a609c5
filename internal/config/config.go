// Package config holds and validates the avsecd daemon configuration.
//
// The daemon is configured by command-line flags alone: cmd/avsecd
// binds each flag straight to a field of Default(), and server.New
// validates the result. The request body bound and the read-header
// timeout are fixed constants, not settings (docs/DAEMON.md "Limits").
package config

import (
	"fmt"
	"strings"
)

// Config is the avsecd daemon configuration.
type Config struct {
	// Addr is the listen address, host:port. The port may be 0 to let
	// the kernel choose (the daemon announces the resolved address on
	// startup, which is how the CI smoke script finds it).
	Addr string
	// Jobs is the default worker-pool size for campaign requests that
	// do not set their own: 0 means GOMAXPROCS. Requests may lower or
	// raise it per campaign; output bytes never depend on it.
	Jobs int
	// ScenarioDir is the scenario corpus directory resolved for scn-*
	// experiment ids (missing directory = zero scenarios, same as the
	// CLI's -scenarios flag).
	ScenarioDir string
	// Cache configures the content-addressed result cache.
	Cache CacheConfig
}

// CacheConfig configures the result cache (internal/resultcache).
type CacheConfig struct {
	// Dir is the cache directory, created on demand.
	Dir string
	// Disabled turns the cache off entirely; every campaign cell is
	// recomputed. Individual requests can also opt out per campaign.
	Disabled bool
}

// Default returns the configuration the daemon runs with when no flags
// are given.
func Default() Config {
	return Config{
		Addr:        "127.0.0.1:8787",
		ScenarioDir: "scenarios",
		Cache:       CacheConfig{Dir: "avsecd.cache"},
	}
}

// Validate checks the configuration's invariants and reports every
// violation at once.
func (c *Config) Validate() error {
	var errs []string
	if strings.TrimSpace(c.Addr) == "" {
		errs = append(errs, "addr must be non-empty")
	}
	if c.Jobs < 0 {
		errs = append(errs, fmt.Sprintf("jobs must be >= 0 (0 = GOMAXPROCS), got %d", c.Jobs))
	}
	if !c.Cache.Disabled && strings.TrimSpace(c.Cache.Dir) == "" {
		errs = append(errs, "cache dir must be non-empty unless the cache is disabled")
	}
	if len(errs) > 0 {
		return fmt.Errorf("config: %s", strings.Join(errs, "; "))
	}
	return nil
}
