package scenario

import (
	"fmt"
	"strings"

	"autosec/internal/canbus"
	"autosec/internal/core"
	"autosec/internal/ids"
	"autosec/internal/killchain"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
	"autosec/internal/secoc"
	"autosec/internal/sim"
	"autosec/internal/telemetry"
	"autosec/internal/vcrypto"
)

// IDPrefix namespaces compiled scenario experiment ids so they can
// never collide with registry experiments ("scn-<name>").
const IDPrefix = "scn-"

// warmupSteps is the detector training window at the start of every
// traffic scenario: both detectors observe only legitimate traffic for
// this many periods, so attacks effectively start no earlier.
const warmupSteps = 16

// Compile validates the spec and turns it into a runnable experiment.
// The result runs through the exact paths registry experiments use
// (core.RunResultOf, avsec run/campaign), with the same determinism
// contract: same spec + seed ⇒ byte-identical report, metrics, and
// trace at any worker-pool size.
func Compile(sp *Spec) (core.Experiment, error) {
	if err := sp.Validate(); err != nil {
		return core.Experiment{}, err
	}
	sp = sp.Clone() // the experiment must not alias caller-mutable state
	title := sp.Title
	if title == "" {
		title = AutoTitle(sp)
	}
	// Validate resolved the type already; Lookup cannot fail here.
	atk, err := Attacks.Lookup(sp.Attacker.Type)
	if err != nil {
		return core.Experiment{}, fmt.Errorf("scenario: [attacker] %w", err)
	}
	run := func(rc *core.RunContext) (string, error) {
		if atk.Run != nil {
			return atk.Run(sp, rc)
		}
		return runTraffic(sp, rc)
	}
	return core.Experiment{
		ID:     IDPrefix + sp.Name,
		Title:  title,
		Source: "scenario",
		Run:    run,
		// Relative wall-time rank for the campaign scheduler: traffic
		// scenarios scale with observed frames × replicates.
		Cost: sp.World.Frames * sp.World.Zones * sp.World.EndpointsPerZone * sp.Run.Replicates / 1000,
	}, nil
}

// AutoTitle derives the standard one-line title from the spec fields.
func AutoTitle(sp *Spec) string {
	if sp.Attacker.Type == AttackKillChain {
		return fmt.Sprintf("kill chain vs %d defences", len(sp.KillChain.Defences))
	}
	return fmt.Sprintf("%s under %s", sp.Protocol.Suite, sp.Attacker.Type)
}

// trial is one replicate's folded outcome. Replicate functions write
// only their own index; all aggregation happens after the join.
type trial struct {
	sent           int // victim frames offered to the channel
	delivered      int // victim frames verified on time
	verifyFailed   int // victim frames the receiver rejected
	lateAccepted   int // delayed frames inside the replay window
	lateRejected   int // delayed frames outside it
	injected       int // attack frames offered to the receiver
	attackAccepted int // attack frames the suite accepted
	alerts         int // IDS alerts in the attack window
	falseAlerts    int // IDS alerts before the attack started
	firstDetect    int // periods from attack start to first alert; -1 = none
}

// runTraffic interprets every non-kill-chain attacker type: a victim
// stream protected by the configured suite, background endpoints per
// zone, the attacker injecting/tampering per its type, and the IDS
// detectors observing every bus arrival.
func runTraffic(sp *Spec, rc *core.RunContext) (string, error) {
	rng := rc.RNG()
	trials := make([]trial, sp.Run.Replicates)
	err := rc.Replicates(sp.Run.Replicates, rng, func(i int, r *sim.RNG) error {
		t, err := simulateTraffic(sp, r)
		trials[i] = t
		return err
	})
	if err != nil {
		return "", err
	}

	// Fold in index order; every published number is a pure function of
	// the joined trials.
	var sum trial
	detected, detectSum := 0, 0
	for _, t := range trials {
		sum.sent += t.sent
		sum.delivered += t.delivered
		sum.verifyFailed += t.verifyFailed
		sum.lateAccepted += t.lateAccepted
		sum.lateRejected += t.lateRejected
		sum.injected += t.injected
		sum.attackAccepted += t.attackAccepted
		sum.alerts += t.alerts
		sum.falseAlerts += t.falseAlerts
		if t.firstDetect >= 0 {
			detected++
			detectSum += t.firstDetect
		}
	}
	n := float64(len(trials))
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	meanDetect := 0.0
	if detected > 0 {
		meanDetect = float64(detectSum) / float64(detected)
	}

	tb := rc.Table(fmt.Sprintf("scenario %s — %s vs %s (%d replicates)",
		sp.Name, sp.Protocol.Suite, sp.Attacker.Type, sp.Run.Replicates),
		"metric", "value")
	tb.AddRow("delivered-rate", ratio(sum.delivered, sum.sent))
	tb.AddRow("verify-reject-rate", ratio(sum.verifyFailed, sum.sent))
	tb.AddRow("late-accept-rate", ratio(sum.lateAccepted, sum.lateAccepted+sum.lateRejected))
	tb.AddRow("attack-accept-rate", ratio(sum.attackAccepted, sum.injected))
	tb.AddRow("injected-per-replicate", float64(sum.injected)/n)
	tb.AddRow("detection-rate", float64(detected)/n)
	tb.AddRow("mean-periods-to-detect", meanDetect)
	tb.AddRow("alerts-per-replicate", float64(sum.alerts)/n)
	tb.AddRow("false-alerts-per-replicate", float64(sum.falseAlerts)/n)

	var b strings.Builder
	b.WriteString(tb.String())
	entry, _, _ := suites.Suites.Get(sp.Protocol.Suite)
	auth, conf, replay := entry.Props.YesNo()
	fmt.Fprintf(&b, "\nworld: %d zones × %d endpoints, %d frames of %d B every %d µs; attacker in zone %d\n",
		sp.World.Zones, sp.World.EndpointsPerZone, sp.World.Frames, sp.World.FrameBytes,
		sp.World.PeriodUS, sp.Attacker.Zone)
	fmt.Fprintf(&b, "suite %s: auth=%s conf=%s replay-protection=%s; ids enabled=%v tolerance=%g radius=%g\n",
		sp.Protocol.Suite, auth, conf, replay, sp.IDS.Enabled, sp.IDS.Tolerance, sp.IDS.MatchRadius)
	return b.String(), nil
}

// simulateTraffic runs one replicate on its own RNG stream. It must
// draw randomness only from r and touch no shared state. The attack
// behaviour is resolved from the attack registry.
func simulateTraffic(sp *Spec, r *sim.RNG) (trial, error) {
	res := trial{firstDetect: -1}

	entry, err := suites.Lookup(sp.Protocol.Suite)
	if err != nil {
		return res, err
	}
	key := vcrypto.DeriveKey([]byte("scenario:"+sp.Name), "suite-key", sp.Protocol.Suite, 16)
	suite, err := entry.New(secchan.Params{Key: key, RNG: r, MACBits: sp.Protocol.MACBits})
	if err != nil {
		return res, err
	}

	// Endpoint names, formatted once: endpoint e of zone z is
	// nodes[z*EndpointsPerZone+e], and the victim is z0-e0.
	nodes := make([]string, 0, sp.World.Zones*sp.World.EndpointsPerZone)
	for z := 0; z < sp.World.Zones; z++ {
		for e := 0; e < sp.World.EndpointsPerZone; e++ {
			nodes = append(nodes, fmt.Sprintf("z%d-e%d", z, e))
		}
	}
	const victimID uint32 = 0x100
	victimNode := nodes[0]
	attackerNode := fmt.Sprintf("z%d-attacker", sp.Attacker.Zone)
	period := sim.Time(sp.World.PeriodUS) * sim.Microsecond

	// The two in-vehicle detectors of the paper's §VIII tap every
	// arrival: the interval detector, then the sender identifier on a
	// fork of the replicate RNG, with the victim stream enrolled and
	// every physical node profiled for attribution.
	var interval *ids.IntervalDetector
	var sender *ids.SenderIdentifier
	if sp.IDS.Enabled {
		interval = ids.NewIntervalDetectorWith(sp.IDS.Tolerance, 8)
		sender = ids.NewSenderIdentifier(r.Fork())
		sender.MatchRadius = sp.IDS.MatchRadius
		sender.NoiseStd = sp.IDS.NoiseStd
		sender.Enroll(victimID, victimNode)
		for _, node := range nodes {
			sender.KnowNode(node)
		}
		sender.KnowNode(attackerNode)
	}

	atk, err := Attacks.Lookup(sp.Attacker.Type)
	if err != nil {
		return res, err
	}
	var behaviour AttackBehaviour
	if atk.New != nil {
		behaviour = atk.New(sp)
	}

	attackStart := sp.Attacker.Start
	if attackStart < warmupSteps {
		attackStart = warmupSteps
	}
	// Every arrival is shown to the detectors in one reused frame; a
	// detector must not keep it past Observe.
	frame := &canbus.Frame{Format: canbus.FD}
	observe := func(step int, at sim.Time, id uint32, node string) {
		if interval == nil {
			return
		}
		frame.ID, frame.SourceID = id, node
		alerts := 0
		if interval.Observe(at, frame) != nil {
			alerts++
		}
		if sender.Observe(at, frame) != nil {
			alerts++
		}
		if alerts == 0 {
			return
		}
		if behaviour != nil && step >= attackStart {
			res.alerts += alerts
			if res.firstDetect < 0 {
				res.firstDetect = step - attackStart
			}
		} else {
			res.falseAlerts += alerts
		}
	}

	delayed := make(map[int][][]byte) // release step → withheld wires
	payload := make([]byte, sp.World.FrameBytes)
	var backing []byte // victim wire history storage
	st := &TrafficStep{
		Spec:         sp,
		RNG:          r,
		Period:       period,
		res:          &res,
		suite:        suite,
		history:      make([][]byte, 0, sp.World.Frames), // victim wire history
		delayed:      delayed,
		observe:      observe,
		victimID:     victimID,
		attackerNode: attackerNode,
	}

	for step := 0; step < sp.World.Frames; step++ {
		now := sim.Time(step) * period
		if step == warmupSteps && interval != nil {
			interval.EndTraining()
		}

		// Background endpoints keep their periodic streams alive so the
		// interval detector has a trained baseline per identifier.
		for z := 0; z < sp.World.Zones; z++ {
			for e := 0; e < sp.World.EndpointsPerZone; e++ {
				if z == 0 && e == 0 {
					continue // the victim stream is handled below
				}
				observe(step, now, uint32(0x200+z*16+e), nodes[z*sp.World.EndpointsPerZone+e])
			}
		}

		attacking := behaviour != nil &&
			step >= attackStart && (step-attackStart)%sp.Attacker.Every == 0

		// The victim's protected frame for this period.
		r.Bytes(payload)
		wire, err := suite.Protect(payload)
		if err != nil {
			return res, fmt.Errorf("%s Protect: %w", sp.Protocol.Suite, err)
		}
		// The history keeps every period's wire, so it is cut from one
		// backing array, sized for the remaining frames on the first
		// frame (and again only if a longer wire exhausts it). Each
		// entry is capped so appending to it cannot overwrite the next.
		if len(backing) < len(wire) {
			backing = make([]byte, (sp.World.Frames-step)*len(wire))
		}
		wireCopy := backing[:len(wire):len(wire)]
		copy(wireCopy, wire)
		backing = backing[len(wire):]
		st.history = append(st.history, wireCopy)
		res.sent++
		st.Step, st.Now, st.Wire = step, now, wireCopy

		// The behaviour may own delivery (tamper, withhold); otherwise
		// the frame verifies and delivers normally.
		if !(attacking && behaviour.Deliver(st)) {
			if _, err := suite.Verify(wire); err == nil {
				res.delivered++
			} else {
				res.verifyFailed++
			}
			observe(step, now, victimID, victimNode)
		}

		// Withheld frames due this period arrive after the live frame,
		// so their counters are Offset behind the receiver's high-water
		// mark: inside the suite's window they are accepted late,
		// outside they are dropped.
		for j, w := range delayed[step] {
			if _, err := suite.Verify(w); err == nil {
				res.lateAccepted++
			} else {
				res.lateRejected++
			}
			observe(step, now+sim.Time(j+1), victimID, attackerNode)
		}
		delete(delayed, step)

		// Injections on top of the victim's own traffic.
		if attacking {
			behaviour.Inject(st)
		}
	}
	return res, nil
}

// forgedTagBytes is how many trailing wire bytes the forger randomizes:
// the truncated SECOC tag when that suite is configured, a fixed 4-byte
// guess window otherwise.
func forgedTagBytes(sp *Spec) int {
	if sp.Protocol.Suite == "SECOC" {
		cfg := secoc.DefaultConfig(1)
		if sp.Protocol.MACBits != 0 {
			cfg.MACBits = sp.Protocol.MACBits
		}
		return (cfg.MACBits + 7) / 8
	}
	return 4
}

// runKillChain interprets the AttackKillChain type: the Fig. 8
// telemetry-cloud chain against the configured defence subset, fleet
// size scaled from the world topology.
func runKillChain(sp *Spec, rc *core.RunContext) (string, error) {
	defs := sp.KillChain.Defences
	cfg, err := killchain.ConfigFor(defs)
	if err != nil {
		return "", err
	}
	fleet := 20 * sp.World.Zones * sp.World.EndpointsPerZone
	points := 8 + sp.World.FrameBytes

	rng := rc.RNG()
	reps := make([]*killchain.Report, sp.Run.Replicates)
	err = rc.Replicates(sp.Run.Replicates, rng, func(i int, r *sim.RNG) error {
		cloud := telemetry.NewCloud(cfg, fleet, points, r)
		reps[i] = killchain.Run(cloud)
		return nil
	})
	if err != nil {
		return "", err
	}

	// The chain is deterministic given the config; replicates vary only
	// the fleet data. Aggregate stage depth and breach size.
	stageSum, breached, recSum, vehSum := 0, 0, 0, 0
	for _, rep := range reps {
		stageSum += stageReached(rep)
		if rep.Breached {
			breached++
			recSum += rep.RecordsExfiltrated
			vehSum += rep.VehiclesAffected
		}
	}
	n := float64(len(reps))
	tb := rc.Table(fmt.Sprintf("scenario %s — kill chain vs %d defences (%d replicates)",
		sp.Name, len(defs), sp.Run.Replicates),
		"metric", "value")
	tb.AddRow("stage-reached", float64(stageSum)/n)
	tb.AddRow("breach-rate", float64(breached)/n)
	tb.AddRow("records-exfiltrated", float64(recSum)/n)
	tb.AddRow("vehicles-affected", float64(vehSum)/n)
	tb.AddRow("defences-deployed", len(defs))

	var b strings.Builder
	b.WriteString(tb.String())
	names := "(none)"
	if len(sp.KillChain.Defences) > 0 {
		names = strings.Join(sp.KillChain.Defences, ", ")
	}
	fmt.Fprintf(&b, "\ndefences: %s\nchain trace of replicate 0:\n%s", names, reps[0].String())
	return b.String(), nil
}

// stageReached counts completed chain links (6 = full breach).
func stageReached(rep *killchain.Report) int {
	if rep.Breached {
		return 6
	}
	if f := rep.FailedAt(); f >= 0 {
		return f
	}
	return len(rep.Stages)
}
