// Package scenario is the declarative layer over the experiment
// harness: a Spec describes one simulated attack scenario — world
// topology, attacker placement and type, the protecting Table I suite
// from the secchan/suites registry, IDS thresholds, replicate counts —
// in a per-folder scenario.ini format (one folder per scenario, in the
// SysImpactCV style), and the interpreter in compile.go turns it into a
// runnable core.Experiment with full sim.Metric/trace output. On top
// of that, generate.go grows a corpus of scenarios by coverage-guided
// mutation (kill-chain stages reached, detection/non-detection
// boundaries, replay-window edges).
//
// The byte-determinism contract of the repo applies to every scenario:
// the same spec run at the same seed produces identical reports,
// metrics, and traces at any worker-pool size, and the same generator
// seed reproduces the committed corpus byte for byte (`avsec gen
// -check` in CI).
package scenario

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"autosec/internal/killchain"
	"autosec/internal/secchan/suites"
)

// Attack types a scenario can stage. All but AttackKillChain drive
// in-vehicle traffic through the protecting suite with IDS taps; the
// kill chain runs the Fig. 8 telemetry-cloud chain instead.
const (
	AttackNone       = "none"       // clean traffic baseline
	AttackReplay     = "replay"     // re-inject a captured protected frame
	AttackForge      = "forge"      // MITM-tamper frames, guessing the (truncated) MAC
	AttackMasquerade = "masquerade" // inject crafted frames under the victim's CAN id
	AttackFlood      = "flood"      // burst-inject frames each period
	AttackDelay      = "delay"      // withhold frames, release them offset periods late
	AttackKillChain  = "killchain"  // Fig. 8 cloud kill chain vs a defence subset
)

// Spec is one declarative scenario. The zero value is not valid;
// construct with DefaultSpec and override fields (or parse a
// scenario.ini).
type Spec struct {
	// Name is the scenario id — also its folder name under scenarios/
	// and its experiment id prefix-free form (lowercase, digits, '-').
	Name string
	// Title is the one-line human description shown by `avsec list`.
	Title string

	World    World
	Attacker Attacker
	Protocol Protocol
	IDS      IDS
	// KillChain configures the AttackKillChain type and must be empty
	// for every other attacker type.
	KillChain KillChain
	Run       RunCfg
}

// World is the simulated topology and traffic shape.
type World struct {
	// Zones is the number of IVN zones (1–6).
	Zones int
	// EndpointsPerZone is how many ECUs emit background traffic per
	// zone (1–8). The victim stream is zone 0, endpoint 0.
	EndpointsPerZone int
	// Frames is how many periods the scenario simulates (32–1024).
	Frames int
	// FrameBytes is the protected payload size (1–32).
	FrameBytes int
	// PeriodUS is the victim stream's transmission period in
	// microseconds (100–100000).
	PeriodUS int
}

// Attacker is the adversary placement and behaviour.
type Attacker struct {
	// Type is one of AttackTypes().
	Type string
	// Zone places the attacker's physical node (0 ≤ Zone < Zones).
	Zone int
	// Start is the first attacked period (detectors always finish
	// their training window first; see compile.go).
	Start int
	// Every attacks one period in Every (1–64).
	Every int
	// Offset is the replay capture age / delay release distance in
	// periods (1–512) — the knob that probes replay-window edges.
	Offset int
	// Rate is the flood burst size per attacked period (1–16).
	Rate int
}

// Protocol selects the protecting secure-channel suite.
type Protocol struct {
	// Suite is a name from suites.Registry() (e.g. "SECOC", "MACsec").
	Suite string
	// MACBits overrides the SECOC MAC truncation (0 = profile default;
	// multiple of 8, 8–128). Ignored by fixed-tag suites — the knob
	// that probes forgery-acceptance boundaries.
	MACBits int
}

// IDS configures the detection layer observing the bus.
type IDS struct {
	// Enabled turns both detectors on.
	Enabled bool
	// Tolerance is the interval detector's anomaly fraction in (0, 1):
	// an arrival below Tolerance × learned period is flagged.
	Tolerance float64
	// MatchRadius is the sender-identifier fingerprint acceptance
	// radius in (0, 2].
	MatchRadius float64
	// NoiseStd is the analog measurement noise in [0, 0.3].
	NoiseStd float64
}

// KillChain parameterises the AttackKillChain scenario type.
type KillChain struct {
	// Defences names the deployed killchain defences (names from
	// killchain.DefenceNames), deduplicated, in deployment order.
	Defences []string
}

// RunCfg is the statistical envelope.
type RunCfg struct {
	// Replicates is the Monte-Carlo replicate count (1–16); replicates
	// fan out over the run's worker pool deterministically.
	Replicates int
}

// DefaultSpec returns a valid baseline scenario: a clean two-zone
// world protected by SECOC with both detectors on.
func DefaultSpec(name string) *Spec {
	return &Spec{
		Name:  name,
		Title: "SECOC baseline (no attack)",
		World: World{
			Zones:            2,
			EndpointsPerZone: 3,
			Frames:           128,
			FrameBytes:       16,
			PeriodUS:         10000,
		},
		Attacker: Attacker{
			Type:   AttackNone,
			Zone:   0,
			Start:  32,
			Every:  2,
			Offset: 8,
			Rate:   4,
		},
		Protocol: Protocol{Suite: "SECOC", MACBits: 0},
		IDS:      IDS{Enabled: true, Tolerance: 0.5, MatchRadius: 0.25, NoiseStd: 0.03},
		Run:      RunCfg{Replicates: 2},
	}
}

// nameRe is folder-name-safe: scenarios live in scenarios/<Name>/.
var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]{0,63}$`)

// Validate checks every field against its documented range. The
// returned error names the offending section and key, so CLI users see
// exactly which scenario.ini line to fix.
func (s *Spec) Validate() error {
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("scenario: [scenario] name %q must match %s", s.Name, nameRe)
	}
	if s.Title != strings.TrimSpace(s.Title) || strings.ContainsAny(s.Title, "\n\r") {
		return fmt.Errorf("scenario: [scenario] title %q must be a single trimmed line", s.Title)
	}
	if err := intIn("world", "zones", s.World.Zones, 1, 6); err != nil {
		return err
	}
	if err := intIn("world", "endpoints_per_zone", s.World.EndpointsPerZone, 1, 8); err != nil {
		return err
	}
	if err := intIn("world", "frames", s.World.Frames, 32, 1024); err != nil {
		return err
	}
	if err := intIn("world", "frame_bytes", s.World.FrameBytes, 1, 32); err != nil {
		return err
	}
	if err := intIn("world", "period_us", s.World.PeriodUS, 100, 100000); err != nil {
		return err
	}

	if _, err := Attacks.Lookup(s.Attacker.Type); err != nil {
		return fmt.Errorf("scenario: [attacker] %w", err)
	}
	if err := intIn("attacker", "zone", s.Attacker.Zone, 0, s.World.Zones-1); err != nil {
		return err
	}
	if err := intIn("attacker", "start", s.Attacker.Start, 0, s.World.Frames-1); err != nil {
		return err
	}
	if err := intIn("attacker", "every", s.Attacker.Every, 1, 64); err != nil {
		return err
	}
	if err := intIn("attacker", "offset", s.Attacker.Offset, 1, 512); err != nil {
		return err
	}
	if err := intIn("attacker", "rate", s.Attacker.Rate, 1, 16); err != nil {
		return err
	}

	if _, err := suites.Lookup(s.Protocol.Suite); err != nil {
		return fmt.Errorf("scenario: [protocol] %w", err)
	}
	if mb := s.Protocol.MACBits; mb != 0 && (mb < 8 || mb > 128 || mb%8 != 0) {
		return fmt.Errorf("scenario: [protocol] mac_bits %d must be 0 or a multiple of 8 in [8, 128]", mb)
	}

	if !inRange(s.IDS.Tolerance, 0, 1, false) {
		return fmt.Errorf("scenario: [ids] tolerance %v outside (0, 1)", s.IDS.Tolerance)
	}
	if !inRange(s.IDS.MatchRadius, 0, 2, true) {
		return fmt.Errorf("scenario: [ids] match_radius %v outside (0, 2]", s.IDS.MatchRadius)
	}
	if math.IsNaN(s.IDS.NoiseStd) || s.IDS.NoiseStd < 0 || s.IDS.NoiseStd > 0.3 {
		return fmt.Errorf("scenario: [ids] noise_std %v outside [0, 0.3]", s.IDS.NoiseStd)
	}

	if s.Attacker.Type == AttackKillChain {
		seen := make(map[string]bool)
		for _, name := range s.KillChain.Defences {
			if _, err := killchain.ParseDefence(name); err != nil {
				return fmt.Errorf("scenario: [killchain] %w", err)
			}
			if seen[name] {
				return fmt.Errorf("scenario: [killchain] defence %q listed twice", name)
			}
			seen[name] = true
		}
	} else if len(s.KillChain.Defences) > 0 {
		return fmt.Errorf("scenario: [killchain] defences require attacker type %q, not %q", AttackKillChain, s.Attacker.Type)
	}

	if err := intIn("run", "replicates", s.Run.Replicates, 1, 16); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the spec (mutation fodder for the
// generator).
func (s *Spec) Clone() *Spec {
	c := *s
	c.KillChain.Defences = append([]string(nil), s.KillChain.Defences...)
	return &c
}

func intIn(section, key string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("scenario: [%s] %s %d outside [%d, %d]", section, key, v, lo, hi)
	}
	return nil
}

// inRange checks lo < v < hi (or ≤ hi when incHi); NaN always fails.
func inRange(v, lo, hi float64, incHi bool) bool {
	if math.IsNaN(v) {
		return false
	}
	if incHi {
		return v > lo && v <= hi
	}
	return v > lo && v < hi
}
