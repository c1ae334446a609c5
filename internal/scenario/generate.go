package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"autosec/internal/core"
	"autosec/internal/killchain"
	"autosec/internal/secchan/suites"
	"autosec/internal/sim"
)

// covSeed is the fixed evaluation seed of the generator: every
// candidate spec is executed once at this seed and its published
// metrics become coverage signals. One fixed seed keeps generation a
// pure function of GenConfig.
const covSeed = 9

// manifestVersion guards the corpus format: bump it when the generator
// or serialization changes incompatibly, so `avsec gen -check` fails
// loudly instead of diffing noise.
const manifestVersion = 1

// GenConfig parameterises one corpus generation. Generation is a pure
// function of this struct — the same config reproduces the committed
// corpus byte for byte on any machine at any -jobs count.
type GenConfig struct {
	// Seed drives every mutation decision.
	Seed int64
	// Target is how many scenarios to accept into the corpus.
	Target int
	// MaxIters bounds the search (0 = 64 × Target).
	MaxIters int
}

// Corpus is a generated scenario set plus its coverage account.
type Corpus struct {
	Cfg GenConfig
	// Specs are the accepted scenarios, named gen-0000… in acceptance
	// order.
	Specs []*Spec
	// Keys are the distinct coverage keys the corpus reached, sorted.
	Keys []string
	// Iters is how many candidate evaluations the search consumed.
	Iters int
}

// bucket maps a rate metric onto the three coverage-relevant outcomes:
// the all/zero boundaries are exactly the detection/non-detection and
// accept/reject edges the generator hunts for.
func bucket(v float64) string {
	switch {
	case v <= 0:
		return "zero"
	case v >= 1:
		return "all"
	default:
		return "partial"
	}
}

// coverageKeys derives the coverage signals of one evaluated candidate
// from its spec and metrics, over five dimensions: which attacker type
// it stages; for kill-chain specs, the stage reached, the breach
// outcome and the defence count; otherwise which suite ran and which
// suite×attack pairing it exercised, the attack-accept, late-accept
// and detection rate buckets, and whether the IDS raised alerts before
// the attack started. Coverage is set-semantic, so key order is free;
// but adding a dimension changes which candidates count as fresh
// coverage and regenerates the corpus (`avsec gen -check` catches it).
func coverageKeys(sp *Spec, metrics []sim.Metric) []string {
	m := make(map[string]float64, len(metrics))
	for _, mt := range metrics {
		m[mt.Name] = mt.Value
	}
	t := sp.Attacker.Type
	keys := []string{"attack:" + t}
	if t == AttackKillChain {
		return append(keys,
			fmt.Sprintf("kc:stage:%d", int(m["stage-reached/value"])),
			"kc:breached:"+bucket(m["breach-rate/value"]),
			fmt.Sprintf("kc:ndef:%d", len(sp.KillChain.Defences)))
	}
	s := sp.Protocol.Suite
	fp := "fp:none"
	if m["false-alerts-per-replicate/value"] > 0 {
		fp = "fp:some"
	}
	return append(keys,
		"suite:"+s, "pair:"+s+"+"+t,
		"accept:"+t+":"+bucket(m["attack-accept-rate/value"]),
		"late:"+s+":"+bucket(m["late-accept-rate/value"]),
		"detect:"+t+":"+bucket(m["detection-rate/value"]),
		fp)
}

// baseSpecs are the search's starting population: one tuned spec per
// attack type, each already sitting near an interesting boundary
// (truncated MAC for forgery, small offsets for window edges).
func baseSpecs() []*Spec {
	var out []*Spec
	for _, typ := range AttackTypes() {
		sp := DefaultSpec("base-" + typ)
		sp.Attacker.Type = typ
		switch typ {
		case AttackForge:
			sp.Protocol.MACBits = 8
		case AttackReplay:
			sp.Attacker.Offset = 4
		case AttackDelay:
			sp.Attacker.Offset = 8
		case AttackKillChain:
			sp.KillChain.Defences = nil
		}
		sp.Title = AutoTitle(sp)
		out = append(out, sp)
	}
	return out
}

// pickInt returns one of the given values.
func pickInt(r *sim.RNG, vs []int) int { return vs[r.Intn(len(vs))] }

func pickFloat(r *sim.RNG, vs []float64) float64 { return vs[r.Intn(len(vs))] }

// mutations is the fixed operator table of the search. Each operator
// moves one knob to a value chosen from a set that includes the
// documented boundary points (replay-window edges at 31/32/33 and
// 63/64/65, MAC truncations, detector tolerances either side of the
// period-halving signature).
func mutations() []func(*Spec, *sim.RNG) {
	suiteNames := suites.Suites.NamesWith(suites.CapTable1)
	defNames := killchain.DefenceNames()
	return []func(*Spec, *sim.RNG){
		func(s *Spec, r *sim.RNG) { s.Protocol.Suite = suiteNames[r.Intn(len(suiteNames))] },
		func(s *Spec, r *sim.RNG) { s.Protocol.MACBits = pickInt(r, []int{0, 8, 16, 24, 32, 64}) },
		func(s *Spec, r *sim.RNG) {
			s.Attacker.Offset = pickInt(r, []int{1, 2, 4, 8, 16, 31, 32, 33, 63, 64, 65, 127, 128})
		},
		func(s *Spec, r *sim.RNG) { s.World.Frames = pickInt(r, []int{64, 96, 128, 192, 256, 384}) },
		func(s *Spec, r *sim.RNG) { s.World.Zones = 1 + r.Intn(4) },
		func(s *Spec, r *sim.RNG) { s.World.EndpointsPerZone = 1 + r.Intn(6) },
		func(s *Spec, r *sim.RNG) { s.World.FrameBytes = pickInt(r, []int{4, 8, 16, 32}) },
		func(s *Spec, r *sim.RNG) { s.World.PeriodUS = pickInt(r, []int{2000, 5000, 10000, 20000}) },
		func(s *Spec, r *sim.RNG) {
			s.IDS.Tolerance = pickFloat(r, []float64{0.3, 0.45, 0.5, 0.55, 0.7, 0.9})
		},
		func(s *Spec, r *sim.RNG) {
			s.IDS.MatchRadius = pickFloat(r, []float64{0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0})
		},
		func(s *Spec, r *sim.RNG) {
			s.IDS.NoiseStd = pickFloat(r, []float64{0, 0.01, 0.03, 0.08, 0.15})
		},
		func(s *Spec, r *sim.RNG) { s.IDS.Enabled = !s.IDS.Enabled },
		func(s *Spec, r *sim.RNG) { s.Run.Replicates = pickInt(r, []int{2, 3, 4}) },
		func(s *Spec, r *sim.RNG) { s.Attacker.Every = pickInt(r, []int{1, 2, 3, 4, 8}) },
		func(s *Spec, r *sim.RNG) { s.Attacker.Start = pickInt(r, []int{0, 16, 32, 48, 64}) },
		func(s *Spec, r *sim.RNG) { s.Attacker.Rate = pickInt(r, []int{1, 2, 4, 8, 16}) },
		func(s *Spec, r *sim.RNG) { s.Attacker.Zone = r.Intn(6) },
		func(s *Spec, r *sim.RNG) {
			types := AttackTypes()
			s.Attacker.Type = types[r.Intn(len(types))]
			resampleDefences(s, r, defNames)
		},
		func(s *Spec, r *sim.RNG) { resampleDefences(s, r, defNames) },
	}
}

// resampleDefences draws a fresh defence subset for kill-chain specs
// (and clears it otherwise, keeping the spec valid).
func resampleDefences(s *Spec, r *sim.RNG, defNames []string) {
	s.KillChain.Defences = nil
	if s.Attacker.Type != AttackKillChain {
		return
	}
	for _, name := range defNames {
		if r.Bool(0.5) {
			s.KillChain.Defences = append(s.KillChain.Defences, name)
		}
	}
}

// repair clamps cross-field constraints a single-knob mutation can
// break, so every candidate reaches Validate well-formed.
func repair(s *Spec) {
	if s.Attacker.Zone >= s.World.Zones {
		s.Attacker.Zone = s.World.Zones - 1
	}
	if s.Attacker.Start >= s.World.Frames {
		s.Attacker.Start = s.World.Frames - 1
	}
	if s.Attacker.Type != AttackKillChain {
		s.KillChain.Defences = nil
	}
	s.Title = AutoTitle(s)
}

// Generate runs the coverage-guided search: starting from one base
// spec per attack type, it mutates accepted specs and keeps candidates
// that light up a coverage key no earlier scenario reached (with a
// low-rate exploration quota so the corpus also densifies already-seen
// regions until Target is met). Every accepted spec validates, runs,
// and is named gen-NNNN in acceptance order.
func Generate(cfg GenConfig) (*Corpus, error) {
	if cfg.Target < 1 {
		return nil, fmt.Errorf("scenario: generate target %d < 1", cfg.Target)
	}
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = 64 * cfg.Target
	}
	rng := sim.NewRNG(cfg.Seed)
	muts := mutations()
	covered := make(map[string]bool)
	var keys []string
	c := &Corpus{Cfg: GenConfig{Seed: cfg.Seed, Target: cfg.Target, MaxIters: maxIters}}

	accept := func(sp *Spec, ks []string) {
		sp.Name = fmt.Sprintf("gen-%04d", len(c.Specs))
		c.Specs = append(c.Specs, sp)
		for _, k := range ks {
			if !covered[k] {
				covered[k] = true
				keys = append(keys, k)
			}
		}
	}

	evaluate := func(sp *Spec) ([]string, error) {
		e, err := Compile(sp)
		if err != nil {
			return nil, err
		}
		res, err := core.RunResultOf(e, covSeed, core.RunOptions{})
		if err != nil {
			return nil, err
		}
		return coverageKeys(sp, res.Metrics), nil
	}

	// Seed the population: the bases always enter the corpus, so every
	// attack type is represented even at tiny targets.
	for _, sp := range baseSpecs() {
		if len(c.Specs) >= cfg.Target {
			break
		}
		ks, err := evaluate(sp)
		if err != nil {
			return nil, fmt.Errorf("scenario: base %s: %w", sp.Attacker.Type, err)
		}
		accept(sp, ks)
	}

	for c.Iters = 0; len(c.Specs) < cfg.Target && c.Iters < maxIters; c.Iters++ {
		parent := c.Specs[rng.Intn(len(c.Specs))]
		cand := parent.Clone()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			muts[rng.Intn(len(muts))](cand, rng)
		}
		repair(cand)
		if err := cand.Validate(); err != nil {
			// A mutation combination outside the repairable envelope;
			// skip it — determinism is unaffected, the draw sequence
			// already advanced.
			continue
		}
		ks, err := evaluate(cand)
		if err != nil {
			return nil, fmt.Errorf("scenario: candidate eval: %w", err)
		}
		fresh := false
		for _, k := range ks {
			if !covered[k] {
				fresh = true
				break
			}
		}
		// Exploration quota: every 7th iteration may accept a
		// no-new-coverage candidate, so the corpus reaches Target even
		// after the coverage frontier saturates.
		if fresh || c.Iters%7 == 6 {
			accept(cand, ks)
		}
	}
	if len(c.Specs) < cfg.Target {
		return nil, fmt.Errorf("scenario: search exhausted %d iterations with %d/%d scenarios",
			maxIters, len(c.Specs), cfg.Target)
	}
	sort.Strings(keys)
	c.Keys = keys
	return c, nil
}

// ManifestFile records the generator inputs inside the corpus — the
// single source `avsec gen -check` regenerates from.
const ManifestFile = "MANIFEST.ini"

// IndexFile is the generated human-readable corpus index.
const IndexFile = "INDEX.md"

// Files renders the corpus as its on-disk layout: one folder per
// scenario holding scenario.ini, plus the manifest and the index. The
// map is path → exact file bytes.
func (c *Corpus) Files() map[string][]byte {
	files := make(map[string][]byte, len(c.Specs)+2)
	for _, sp := range c.Specs {
		files[sp.Name+"/"+SpecFile] = sp.MarshalINI()
	}
	var m strings.Builder
	m.WriteString("# avsec scenario corpus manifest — regenerate with `avsec gen`.\n")
	m.WriteString("# CI re-runs the generator from this seed and diffs byte-for-byte.\n\n")
	m.WriteString("[generator]\n")
	fmt.Fprintf(&m, "version = %d\n", manifestVersion)
	fmt.Fprintf(&m, "seed = %d\n", c.Cfg.Seed)
	fmt.Fprintf(&m, "target = %d\n", c.Cfg.Target)
	fmt.Fprintf(&m, "max_iters = %d\n", c.Cfg.MaxIters)
	fmt.Fprintf(&m, "count = %d\n", len(c.Specs))
	fmt.Fprintf(&m, "coverage_keys = %d\n", len(c.Keys))
	fmt.Fprintf(&m, "iterations = %d\n", c.Iters)
	files[ManifestFile] = []byte(m.String())
	files[IndexFile] = []byte(c.IndexMarkdown())
	return files
}

// IndexMarkdown renders the corpus index: a per-scenario table plus the
// sorted coverage-key account. Regenerated by `avsec gen`; CI diffs it
// the same way EXPERIMENTS.md is kept fresh.
func (c *Corpus) IndexMarkdown() string {
	var b strings.Builder
	b.WriteString("# Scenario corpus index\n\n")
	fmt.Fprintf(&b, "Generated by `avsec gen -seed %d -target %d` — do not edit by hand;\n",
		c.Cfg.Seed, c.Cfg.Target)
	b.WriteString("`avsec gen -check` regenerates the corpus from MANIFEST.ini and fails\non any byte difference.\n\n")
	fmt.Fprintf(&b, "%d scenarios, %d coverage keys, %d search iterations.\n\n",
		len(c.Specs), len(c.Keys), c.Iters)
	b.WriteString("| scenario | attack | suite | ids | replicates | title |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, sp := range c.Specs {
		suite := sp.Protocol.Suite
		if sp.Attacker.Type == AttackKillChain {
			suite = "—"
		}
		ids := "off"
		if sp.IDS.Enabled {
			ids = "on"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %d | %s |\n",
			sp.Name, sp.Attacker.Type, suite, ids, sp.Run.Replicates, sp.Title)
	}
	b.WriteString("\n## Coverage keys\n\n")
	for _, k := range c.Keys {
		fmt.Fprintf(&b, "- `%s`\n", k)
	}
	return b.String()
}

// ParseManifest reads the generator inputs back out of MANIFEST.ini.
func ParseManifest(data []byte) (GenConfig, error) {
	var cfg GenConfig
	inSection := false
	version := -1
	for i, line := range strings.Split(string(data), "\n") {
		ln := i + 1
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		if t == "[generator]" {
			inSection = true
			continue
		}
		if strings.HasPrefix(t, "[") {
			return cfg, fmt.Errorf("%s:%d: unknown section %q", ManifestFile, ln, t)
		}
		if !inSection {
			return cfg, fmt.Errorf("%s:%d: key before [generator]", ManifestFile, ln)
		}
		eq := strings.Index(t, "=")
		if eq < 0 {
			return cfg, fmt.Errorf("%s:%d: expected 'key = value'", ManifestFile, ln)
		}
		key := strings.TrimSpace(t[:eq])
		val := strings.TrimSpace(t[eq+1:])
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("%s:%d: key %q: %q is not an integer", ManifestFile, ln, key, val)
		}
		switch key {
		case "version":
			version = int(n)
		case "seed":
			cfg.Seed = n
		case "target":
			cfg.Target = int(n)
		case "max_iters":
			cfg.MaxIters = int(n)
		case "count", "coverage_keys", "iterations":
			// Informational outputs; regeneration recomputes them.
		default:
			return cfg, fmt.Errorf("%s:%d: unknown key %q", ManifestFile, ln, key)
		}
	}
	if version != manifestVersion {
		return cfg, fmt.Errorf("%s: version %d, this tool writes %d — regenerate the corpus", ManifestFile, version, manifestVersion)
	}
	if cfg.Target < 1 {
		return cfg, fmt.Errorf("%s: missing or invalid target", ManifestFile)
	}
	return cfg, nil
}
