package core

import (
	"fmt"
	"strings"

	"autosec/internal/ivn"
	"autosec/internal/sim"
)

// ivnCfg returns the standard Fig. 4–6 workload wired to the run's
// tracer, so scenario kernels contribute to the structured trace.
func ivnCfg(rc *RunContext) ivn.Config {
	cfg := ivn.DefaultConfig(rc.Seed)
	cfg.Tracer = rc.Tracer
	return cfg
}

func scenarioRow(tb *sim.Table, r ivn.Result) {
	tb.AddRow(r.Scenario,
		fmt.Sprintf("%d/%d", r.Delivered, r.Sent),
		r.P50Us,
		r.OverheadRatio,
		r.KeysAtZC,
		r.CryptoOpsAtZC,
		fmt.Sprintf("%d/%d", r.ForgeriesAccepted, r.ForgeriesAttempted),
		fmt.Sprintf("%d/%d", r.ReplaysAccepted, r.ReplaysAttempted))
}

// RunFig3 regenerates Fig. 3: the zonal topology inventory and the
// undefended baseline, showing the masquerade vulnerability the later
// scenarios fix.
func RunFig3(rc *RunContext) (string, error) {
	var b strings.Builder
	b.WriteString("Fig. 3 — simplified IVN model\n")
	b.WriteString("  central computing (CC)\n")
	b.WriteString("  ├─ ETH 1 Gbit/s ── zone controller L ── CAN ─── {ecu-1, attacker}\n")
	b.WriteString("  └─ ETH 1 Gbit/s ── zone controller R ── 10B-T1S {endpoint, attacker}\n\n")

	res, err := ivn.RunBaseline(ivnCfg(rc))
	if err != nil {
		return "", err
	}
	tb := scenarioTable(rc, "baseline (no security stack)")
	scenarioRow(tb, res)
	b.WriteString(tb.String())
	b.WriteString("\nwithout authentication every masquerade and replay is accepted: the motivation for Table I.\n")
	return b.String(), nil
}

// RunExpVehicle runs the combined Fig. 3 vehicle: both zones live on one
// kernel, three concurrent protected flows (including a cross-zone flow
// routed through the central computer), and attackers on both buses.
func RunExpVehicle(rc *RunContext) (string, error) {
	// Three classic CAN frames per period (~240 µs each on the wire)
	// need ≥ ~720 µs of bus time; a 1.5 ms period keeps the zone-L bus
	// at ~50 % load so latencies reflect path length, not queueing.
	cfg := ivn.Config{Seed: rc.Seed, Messages: 100, PeriodUs: 1500, PayloadBytes: 4, Forgeries: 40, Tracer: rc.Tracer}
	res, err := ivn.RunFullVehicle(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig. 3 (integrated) — full vehicle, both zones concurrently\n\n")
	b.WriteString(res.String())
	if res.ForgeriesAttempted > 0 {
		rc.Metric("forgeries accepted", float64(res.ForgeriesAccepted)/float64(res.ForgeriesAttempted))
	}
	b.WriteString("\nthe cross-zone flow (CAN → CC → 10BASE-T1S) keeps SECOC end-to-end across three media;\n")
	b.WriteString("simultaneous masquerade campaigns on both buses are fully rejected.\n")
	return b.String(), nil
}

// RunExpZCCompromise probes what an attacker who owns the zone
// controller can do under each scenario's key layout — the executable
// form of the paper's S1/S2 key-placement discussion.
func RunExpZCCompromise(rc *RunContext) (string, error) {
	results, err := ivn.RunZCCompromise()
	if err != nil {
		return "", err
	}
	tb := rc.Table("§III-A — capabilities of a compromised zone controller",
		"scenario", "keys@ZC", "reads-plaintext", "forges-accepted-msgs")
	for _, r := range results {
		tb.AddRow(r.Scenario, r.KeysAtZC, r.PlaintextVisible, r.ForgeryAccepted)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nS1 leaks content (SECOC is authentication-only) but holds integrity; S2-p2p hands the\n")
	b.WriteString("attacker both — the concrete reason the paper favours keyless intermediates (S2-e2e, S3).\n")
	return b.String(), nil
}

// RunFig4 regenerates Fig. 4 (scenario S1).
func RunFig4(rc *RunContext) (string, error) {
	base, err := ivn.RunBaseline(ivnCfg(rc))
	if err != nil {
		return "", err
	}
	s1, err := ivn.RunS1(ivnCfg(rc))
	if err != nil {
		return "", err
	}
	tb := scenarioTable(rc, "Fig. 4 — S1: SECOC end-to-end over CAN + MACsec on the ETH hop")
	scenarioRow(tb, base)
	scenarioRow(tb, s1)
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nS1 costs (as the paper lists): AUTOSAR stack processing at the zone controller, authentication-only\n")
	b.WriteString("protection on the CAN leg, and session-key storage in the zone controller.\n")
	return b.String(), nil
}

// RunFig5 regenerates Fig. 5 (scenario S2, both variants).
func RunFig5(rc *RunContext) (string, error) {
	e2e, err := ivn.RunS2(ivnCfg(rc), ivn.S2EndToEnd)
	if err != nil {
		return "", err
	}
	p2p, err := ivn.RunS2(ivnCfg(rc), ivn.S2PointToPoint)
	if err != nil {
		return "", err
	}
	tb := scenarioTable(rc, "Fig. 5 — S2: MACsec on a homogeneous Ethernet network")
	scenarioRow(tb, e2e)
	scenarioRow(tb, p2p)
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nend-to-end (①) keeps the zone controller keyless and free of security processing, but the\n")
	b.WriteString("intermediate cannot modify protected header information; point-to-point (②) doubles the\n")
	b.WriteString("crypto work and stores a key per hop at the zone controller.\n")
	return b.String(), nil
}

// RunFig6 regenerates Fig. 6 (scenario S3) and the three-way comparison.
func RunFig6(rc *RunContext) (string, error) {
	results, err := ivn.RunAll(ivnCfg(rc))
	if err != nil {
		return "", err
	}
	tb := scenarioTable(rc, "Fig. 6 — S3: CANAL tunnels MACsec end-to-end over CAN XL (full comparison)")
	for _, r := range results {
		scenarioRow(tb, r)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nS3 reaches CAN endpoints with Ethernet-layer security and MKA key agreement end-to-end:\n")
	b.WriteString("no keys and no security processing at the zone controller, at the cost of CANAL segmentation\n")
	b.WriteString("overhead on the CAN XL leg.\n")
	return b.String(), nil
}
