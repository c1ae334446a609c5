package core

import (
	"fmt"
	"strings"

	"autosec/internal/canbus"
	"autosec/internal/ranging"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
	"autosec/internal/sim"
	"autosec/internal/uwb"
	"autosec/internal/vcrypto"
)

// Experiment regenerates one figure or table of the paper.
type Experiment struct {
	ID     string
	Title  string
	Source string // which paper artefact it reproduces
	Run    func(rc *RunContext) (string, error)
	// Cost is a relative wall-time rank (higher = slower) measured on
	// the reference machine; the campaign pool uses it to dispatch the
	// long experiments first. It never affects results, only scheduling,
	// so the values need only be roughly ordered.
	Cost int
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	// Cost values are approximate per-run milliseconds measured serially
	// on the reference machine (seed 42); only their relative order
	// matters to the scheduler.
	return []Experiment{
		{ID: "fig1", Title: "Layered architecture and cross-layer posture", Source: "Fig. 1", Run: RunFig1, Cost: 1},
		{ID: "fig2", Title: "UWB ranging security (HRP / LRP)", Source: "Fig. 2", Run: RunFig2, Cost: 56},
		{ID: "fig3", Title: "Zonal IVN baseline", Source: "Fig. 3", Run: RunFig3, Cost: 1},
		{ID: "tab1", Title: "In-vehicle security protocol matrix", Source: "Table I", Run: RunTable1},
		{ID: "fig4", Title: "Scenario S1: SECOC + MACsec", Source: "Fig. 4", Run: RunFig4, Cost: 2},
		{ID: "fig5", Title: "Scenario S2: MACsec end-to-end vs point-to-point", Source: "Fig. 5", Run: RunFig5, Cost: 2},
		{ID: "fig6", Title: "Scenario S3: CANAL with end-to-end MACsec", Source: "Fig. 6", Run: RunFig6, Cost: 11},
		{ID: "fig7", Title: "SDV trust relations and reconfiguration", Source: "Fig. 7", Run: RunFig7, Cost: 3},
		{ID: "fig8", Title: "Telemetry-cloud kill chain", Source: "Fig. 8", Run: RunFig8, Cost: 32},
		{ID: "exp-stealth", Title: "Exfiltration stealth vs cloud monitoring", Source: "§V-B", Run: RunExpStealth, Cost: 13},
		{ID: "fig9", Title: "MaaS system-of-systems analysis", Source: "Fig. 9", Run: RunFig9, Cost: 31},
		{ID: "exp-ca", Title: "Collision avoidance under sensor attack", Source: "§II-B", Run: RunExpCA, Cost: 1100},
		{ID: "exp-collab", Title: "Collaborative perception & competition", Source: "§VII", Run: RunExpCollab},
		{ID: "exp-ids", Title: "Intrusion detection and response", Source: "§VIII", Run: RunExpIDS, Cost: 1},
		{ID: "exp-access", Title: "Owner-controlled data access (secret sharing)", Source: "§VIII ref[54]", Run: RunExpAccess},
		{ID: "exp-ptp", Title: "Time delay attack vs PTPsec", Source: "§VIII ref[53]", Run: RunExpPTP},
		{ID: "exp-v2x", Title: "Authenticated V2X with pseudonym privacy", Source: "§VII-B", Run: RunExpV2X, Cost: 3},
		{ID: "exp-ota", Title: "OTA update pipeline security", Source: "§IV-A", Run: RunExpOTA, Cost: 1},
		{ID: "exp-vehicle", Title: "Integrated full-vehicle network run", Source: "Fig. 3 (integrated)", Run: RunExpVehicle, Cost: 2},
		{ID: "exp-zc", Title: "Compromised zone controller capabilities", Source: "§III-A", Run: RunExpZCCompromise},
		{ID: "exp-tara", Title: "ISO/SAE 21434-style risk assessment", Source: "§VI", Run: RunExpTARA},
		{ID: "ablate-mac", Title: "Ablation: SECOC MAC truncation", Source: "design", Run: RunAblateMAC, Cost: 39},
		{ID: "ablate-fv", Title: "Ablation: freshness window vs loss", Source: "design", Run: RunAblateFV, Cost: 1},
		{ID: "ablate-sts", Title: "Ablation: STS length vs ghost peak", Source: "design", Run: RunAblateSTS, Cost: 61},
		{ID: "ablate-canal", Title: "Ablation: CANAL segment size", Source: "design", Run: RunAblateCANAL},
		{ID: "ablate-k", Title: "Ablation: redundancy k vs insider", Source: "design", Run: RunAblateRedundancy, Cost: 1},
		{ID: "ablate-ids", Title: "Ablation: sender-ID match radius", Source: "design", Run: RunAblateIDSThreshold, Cost: 6},
		{ID: "ablate-scale", Title: "Ablation: scenario costs vs endpoints per zone", Source: "design", Run: RunAblateScale},
	}
}

// RunFig1 regenerates Fig. 1: the layer inventory with threat/defence
// counts, plus the cross-layer findings an undefended and a partially
// defended posture expose.
func RunFig1(rc *RunContext) (string, error) {
	c, err := DefaultCatalog()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	tb := rc.Table("Fig. 1 — layered architecture of an autonomous system",
		"layer", "threats", "defences", "example threat")
	for _, l := range Layers() {
		threats := c.ThreatsAt(l)
		nDef := 0
		for _, d := range c.Defences() {
			if d.Layer == l {
				nDef++
			}
		}
		example := ""
		if len(threats) > 0 {
			example = threats[0].Name
		}
		tb.AddRow(l.String(), len(threats), nDef, example)
	}
	b.WriteString(tb.String())

	empty := NewPosture(c)
	paths := empty.AttackPaths()
	fmt.Fprintf(&b, "\nundefended posture: %d cross-layer attack paths to safety impact, e.g.\n", len(paths))
	rc.Metric("undefended posture", float64(len(paths)))
	for i, path := range paths {
		if i >= 3 {
			break
		}
		fmt.Fprintf(&b, "  %s\n", path)
	}

	// Single-layer hardening demonstration.
	dataOnly := NewPosture(c)
	if err := dataOnly.Deploy("D-no-debug", "D-secret-store", "D-least-priv", "D-minimize", "D-enum-defence"); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\ndata-layer-only hardening: %d paths remain (hardening one layer is insufficient)\n",
		len(dataOnly.AttackPaths()))
	rc.Metric("data-layer-only hardening", float64(len(dataOnly.AttackPaths())))

	full, err := FullDeployment(c)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "full multi-layer deployment: %d paths remain\n", len(full.AttackPaths()))
	rc.Metric("full multi-layer deployment", float64(len(full.AttackPaths())))

	// Synergy demonstration.
	noSyn := NewPosture(c)
	if err := noSyn.Deploy("D-secoc", "D-macsec", "D-v2x-auth", "D-misbehaviour"); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "synergy check: deploying {SECOC, MACsec, V2X auth, misbehaviour detection} without key management leaves %d of them ineffective: %v\n",
		len(noSyn.IneffectiveDeployments()), noSyn.IneffectiveDeployments())
	rc.Metric("synergy check", float64(len(noSyn.IneffectiveDeployments())))
	return b.String(), nil
}

// RunFig2 regenerates Fig. 2: both UWB ranging modes under benign and
// adversarial conditions, for naive and integrity-checked receivers.
func RunFig2(rc *RunContext) (string, error) {
	rng := rc.RNG()
	const trials = 40
	key := []byte("fig2-ranging-key")

	tb := rc.Table("Fig. 2 — UWB ranging modes under attack",
		"mode", "receiver", "attack", "accepted", "dist-manipulated", "mean-err-m")

	// Each trial is an independent replicate on its own serially
	// pre-forked RNG stream, so the sweep fans out over the worker pool;
	// the per-trial Session (and its scratch arena) is replicate-local.
	// Acceptance counters and the error mean are folded from the joined
	// measurements in trial order.
	hrp := func(secure bool, att uwb.Attacker, label, attackName string) error {
		ms := make([]uwb.Measurement, trials)
		err := rc.Replicates(trials, rng, func(i int, r *sim.RNG) error {
			s := uwb.Session{
				Key: key, Pulses: 256, Session: uint32(i),
				Channel:        uwb.Channel{DistanceM: 60, NoiseStd: 0.2},
				Config:         uwb.DefaultSecureConfig(),
				NaiveThreshold: 0.3,
				Secure:         secure,
			}
			m, err := s.Measure(att, r)
			ms[i] = m
			return err
		})
		if err != nil {
			return err
		}
		accepted, manipulated, errSum := 0, 0, 0.0
		for _, m := range ms {
			if m.Accepted {
				accepted++
				errSum += m.ErrorM()
				if m.ErrorM() < -5 || m.ErrorM() > 5 {
					manipulated++
				}
			}
		}
		mean := 0.0
		if accepted > 0 {
			mean = errSum / float64(accepted)
		}
		tb.AddRow("HRP", label, attackName, fmt.Sprintf("%d/%d", accepted, trials),
			fmt.Sprintf("%d/%d", manipulated, trials), mean)
		return nil
	}
	if err := hrp(false, nil, "naive", "none"); err != nil {
		return "", err
	}
	if err := hrp(true, nil, "secure", "none"); err != nil {
		return "", err
	}
	ghost := &uwb.GhostPeakAttacker{AdvanceSamples: 200, Power: 4}
	if err := hrp(false, ghost, "naive", "ghost-peak"); err != nil {
		return "", err
	}
	if err := hrp(true, ghost, "secure", "ghost-peak"); err != nil {
		return "", err
	}
	jam := &uwb.JamReplayAttacker{DelaySamples: 300, JamStd: 1.2, ReplayGain: 3}
	if err := hrp(false, jam, "naive", "jam-replay"); err != nil {
		return "", err
	}
	if err := hrp(true, jam, "secure", "jam-replay"); err != nil {
		return "", err
	}

	lrp := func(commitment bool, att *uwb.EDLCAttacker, label, attackName string) error {
		ms := make([]uwb.Measurement, trials)
		err := rc.Replicates(trials, rng, func(i int, r *sim.RNG) error {
			resp := make([]byte, 8)
			r.Bytes(resp)
			s := uwb.LRPSession{
				Channel:         uwb.Channel{DistanceM: 60, NoiseStd: 0.1},
				ResponseBits:    32,
				CommitmentCheck: commitment,
				MaxBitErrors:    1,
			}
			m, err := s.MeasureLRP(resp, att, r)
			ms[i] = m
			return err
		})
		if err != nil {
			return err
		}
		accepted, manipulated := 0, 0
		for _, m := range ms {
			if m.Accepted {
				accepted++
				if m.ErrorM() < -5 {
					manipulated++
				}
			}
		}
		tb.AddRow("LRP", label, attackName, fmt.Sprintf("%d/%d", accepted, trials),
			fmt.Sprintf("%d/%d", manipulated, trials), "-")
		return nil
	}
	if err := lrp(true, nil, "commitment", "none"); err != nil {
		return "", err
	}
	edlc := &uwb.EDLCAttacker{AdvanceSamples: 150, Power: 3}
	if err := lrp(false, edlc, "no-commitment", "ED/LC"); err != nil {
		return "", err
	}
	if err := lrp(true, edlc, "commitment", "ED/LC"); err != nil {
		return "", err
	}

	// Distance-bounding theory check alongside the signal model.
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\ndistance bounding (32 rounds): mafia-fraud guess acceptance theory %.2e, pre-ask %.2e\n",
		ranging.FraudSuccessProbability(ranging.MafiaFraudGuess, 32, 0),
		ranging.FraudSuccessProbability(ranging.MafiaFraudPreAsk, 32, 0))
	rc.Metric("distance bounding (32 rounds)", ranging.FraudSuccessProbability(ranging.MafiaFraudGuess, 32, 0))
	return b.String(), nil
}

// RunTable1 regenerates Table I with *measured* per-frame overheads of
// every implemented protocol on its medium. The rows come from the
// suite registry in paper order: each suite protects one sample
// payload and the table reports the observed wire expansion alongside
// the registered guarantee axes.
func RunTable1(rc *RunContext) (string, error) {
	rng := rc.RNG()
	payload := make([]byte, 16)
	rng.Bytes(payload)
	key := vcrypto.DeriveKey([]byte("table1-root-key!"), "k", "t", 16)

	tb := rc.Table("Table I — security protocols for in-vehicle communication (measured)",
		"ISO-OSI layer", "protocol", "media", "overhead-B", "auth", "conf", "replay-prot")

	for _, e := range suites.Registry() {
		s, err := e.New(secchan.Params{Key: key, RNG: rng})
		if err != nil {
			return "", err
		}
		wire, err := s.Protect(payload)
		if err != nil {
			return "", err
		}
		auth, conf, replay := e.Props.YesNo()
		tb.AddRow(e.Layer, e.Name, e.Media, len(wire)-len(payload), auth, conf, replay)
	}

	var b strings.Builder
	b.WriteString(tb.String())
	// Wire-time context per medium.
	classic := &canbus.Frame{ID: 1, Format: canbus.Classic, Payload: make([]byte, 8)}
	xl := &canbus.Frame{ID: 1, Format: canbus.XL, Payload: make([]byte, 64)}
	fmt.Fprintf(&b, "\ncontext: classic CAN frame %d wire bits; CAN XL 64-B frame %d wire bits\n",
		classic.WireBits(), xl.WireBits())
	rc.Metric("context", float64(classic.WireBits()))
	return b.String(), nil
}

// scenarioTable builds the header shared by the Fig. 3–6 experiments.
func scenarioTable(rc *RunContext, title string) *sim.Table {
	return rc.Table(title,
		"scenario", "delivered", "p50-lat-µs", "overhead×", "keys@ZC", "ops@ZC", "forgeries", "replays")
}
