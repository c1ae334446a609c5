package config

import (
	"runtime"
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	t.Parallel()
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
}

func TestValidateRejectsInvalid(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		edit    func(*Config)
		wantSub string
	}{
		{"negative jobs", func(c *Config) { c.Jobs = -1 }, "jobs must be >= 0"},
		{"empty addr", func(c *Config) { c.Addr = "  " }, "addr must be non-empty"},
		{"cache dir empty while enabled", func(c *Config) { c.Cache.Dir = "" }, "cache dir"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Default()
			tc.edit(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) succeeded, want error containing %q", cfg, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// A disabled cache needs no directory.
	cfg := Default()
	cfg.Cache = CacheConfig{Disabled: true}
	if err := cfg.Validate(); err != nil {
		t.Errorf("disabled cache without a dir: %v", err)
	}
}

func TestValidateCollectsEveryProblem(t *testing.T) {
	t.Parallel()
	cfg := Config{Addr: "", Jobs: -2}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate on a broken config succeeded")
	}
	for _, want := range []string{"addr", "jobs", "cache dir"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestDefaultJobsMeansGOMAXPROCS(t *testing.T) {
	t.Parallel()
	// The contract "0 = GOMAXPROCS" is resolved by the server, not
	// here; this pins that the default really is the sentinel and that
	// GOMAXPROCS is a sane pool size on this machine.
	if Default().Jobs != 0 {
		t.Errorf("Default().Jobs = %d, want 0", Default().Jobs)
	}
	if runtime.GOMAXPROCS(0) < 1 {
		t.Fatal("GOMAXPROCS < 1")
	}
}
