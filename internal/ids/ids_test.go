package ids

import (
	"testing"

	"autosec/internal/canbus"
	"autosec/internal/sim"
)

func frame(id uint32, src string) *canbus.Frame {
	return &canbus.Frame{ID: id, Format: canbus.Classic, Payload: []byte{1}, SourceID: src}
}

func TestIntervalDetectorLearnsAndFlagsInjection(t *testing.T) {
	d := NewIntervalDetector()
	period := sim.Time(10 * sim.Millisecond)
	now := sim.Time(0)
	// Training: 20 periodic arrivals.
	for i := 0; i < 20; i++ {
		now += period
		if a := d.Observe(now, frame(0x100, "engine")); a != nil {
			t.Fatalf("alert during training: %+v", a)
		}
	}
	d.EndTraining()
	// Normal traffic stays quiet.
	for i := 0; i < 10; i++ {
		now += period
		if a := d.Observe(now, frame(0x100, "engine")); a != nil {
			t.Fatalf("false positive on periodic traffic: %+v", a)
		}
	}
	// Injection: an extra frame 1 ms after the legitimate one.
	now += period
	if a := d.Observe(now, frame(0x100, "engine")); a != nil {
		t.Fatalf("false positive: %+v", a)
	}
	now += sim.Time(1 * sim.Millisecond)
	if a := d.Observe(now, frame(0x100, "attacker")); a == nil {
		t.Error("injected frame at 10% of period not flagged")
	}
}

func TestIntervalDetectorUnknownID(t *testing.T) {
	d := NewIntervalDetector()
	d.Observe(1, frame(0x100, "engine"))
	d.EndTraining()
	if a := d.Observe(2, frame(0x7FF, "attacker")); a == nil {
		t.Error("unknown identifier after training not flagged")
	}
}

func TestIntervalDetectorToleratesJitter(t *testing.T) {
	d := NewIntervalDetector()
	rng := sim.NewRNG(1)
	period := float64(10 * sim.Millisecond)
	now := sim.Time(0)
	for i := 0; i < 30; i++ {
		now += sim.Time(period * (0.9 + 0.2*rng.Float64()))
		d.Observe(now, frame(0x200, "ecu"))
	}
	d.EndTraining()
	fp := 0
	for i := 0; i < 100; i++ {
		now += sim.Time(period * (0.9 + 0.2*rng.Float64()))
		if a := d.Observe(now, frame(0x200, "ecu")); a != nil {
			fp++
		}
	}
	if fp > 0 {
		t.Errorf("%d false positives under ±10%% jitter", fp)
	}
}

func TestFingerprintsAreStableAndDistinct(t *testing.T) {
	a1 := NodeFingerprint("engine")
	a2 := NodeFingerprint("engine")
	b := NodeFingerprint("infotainment")
	if a1 != a2 {
		t.Error("fingerprint not deterministic")
	}
	if a1.dist(b) < 0.3 {
		t.Errorf("distinct nodes too close: %.3f", a1.dist(b))
	}
}

func TestSenderIdentifierCatchesMasquerade(t *testing.T) {
	rng := sim.NewRNG(2)
	s := NewSenderIdentifier(rng)
	s.Enroll(0x0C0, "engine")
	s.KnowNode("infotainment")

	// Legitimate frames pass.
	for i := 0; i < 50; i++ {
		if a := s.Observe(sim.Time(i), frame(0x0C0, "engine")); a != nil {
			t.Fatalf("false positive on legitimate sender: %+v", a)
		}
	}
	// Masquerade: same identifier, different physical transmitter.
	caught := 0
	for i := 0; i < 50; i++ {
		if a := s.Observe(sim.Time(i), frame(0x0C0, "infotainment")); a != nil {
			caught++
			if a.Source != "infotainment" {
				t.Errorf("attributed to %q", a.Source)
			}
		}
	}
	if caught < 45 {
		t.Errorf("caught only %d/50 masquerade frames", caught)
	}
}

func TestSenderIdentifierIgnoresUnprotectedIDs(t *testing.T) {
	s := NewSenderIdentifier(sim.NewRNG(3))
	if a := s.Observe(1, frame(0x300, "anyone")); a != nil {
		t.Error("unprotected identifier flagged")
	}
}

func TestEngineIsolatesMasquerader(t *testing.T) {
	k := sim.NewKernel(5)
	bus := canbus.NewBus("zone", canbus.DefaultBitRates(), k)
	bus.Attach(&canbus.NodeFunc{ID: "rx"})

	engine := NewEngine(IsolateAndRekey, k)
	engine.SenderID().Enroll(0x0C0, "engine")
	engine.SenderID().KnowNode("infotainment")
	engine.Interval().EndTraining()
	engine.Attach(bus)

	// Legitimate periodic traffic plus a masquerade campaign.
	for i := 0; i < 20; i++ {
		at := sim.Time(i+1) * 10 * sim.Millisecond
		k.Schedule(at, "legit", func(k *sim.Kernel) {
			_ = bus.Send("engine", frame(0x0C0, "engine"))
		})
		k.Schedule(at+3*sim.Millisecond, "masq", func(k *sim.Kernel) {
			_ = bus.Send("infotainment", frame(0x0C0, "infotainment"))
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !engine.Isolated("infotainment") {
		t.Fatalf("masquerader not isolated: %s", engine.Summary())
	}
	if engine.Isolated("engine") {
		t.Error("legitimate sender isolated")
	}
	if engine.Rekeys() == 0 {
		t.Error("rekey not triggered")
	}
	if at, ok := engine.ContainedAt["infotainment"]; !ok || at == 0 {
		t.Error("containment time not recorded")
	}
	if len(engine.isolated) != 1 {
		t.Errorf("isolated %d nodes, want only the masquerader", len(engine.isolated))
	}
}

func TestEngineAlertOnlyDoesNotIsolate(t *testing.T) {
	k := sim.NewKernel(6)
	bus := canbus.NewBus("zone", canbus.DefaultBitRates(), k)
	bus.Attach(&canbus.NodeFunc{ID: "rx"})
	engine := NewEngine(AlertOnly, k)
	engine.SenderID().Enroll(0x0C0, "engine")
	engine.SenderID().KnowNode("infotainment")
	engine.Interval().EndTraining()
	engine.Attach(bus)
	for i := 0; i < 10; i++ {
		at := sim.Time(i+1) * sim.Millisecond
		k.Schedule(at, "masq", func(k *sim.Kernel) {
			_ = bus.Send("infotainment", frame(0x0C0, "infotainment"))
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(engine.Alerts()) == 0 {
		t.Error("no alerts raised")
	}
	if engine.Isolated("infotainment") {
		t.Error("alert-only mode isolated a node")
	}
}

func TestResponseActionStrings(t *testing.T) {
	if AlertOnly.String() != "alert" || Isolate.String() != "isolate" || IsolateAndRekey.String() != "isolate+rekey" {
		t.Error("action strings")
	}
}

func TestIntervalDetectorWithExplicitTolerance(t *testing.T) {
	// The scenario DSL sweeps the detection boundary: an arrival at
	// half the period is flagged at tolerance 0.7 but tolerated at 0.3,
	// and the defaults constructor is exactly With(0.5, 8).
	run := func(tolerance float64) bool {
		d := NewIntervalDetectorWith(tolerance, 8)
		period := sim.Time(10 * sim.Millisecond)
		now := sim.Time(0)
		for i := 0; i < 20; i++ {
			now += period
			if a := d.Observe(now, frame(0x100, "engine")); a != nil {
				t.Fatalf("alert during training: %+v", a)
			}
		}
		d.EndTraining()
		now += period / 2
		return d.Observe(now, frame(0x100, "attacker")) != nil
	}
	if !run(0.7) {
		t.Error("half-period arrival not flagged at tolerance 0.7")
	}
	if run(0.3) {
		t.Error("half-period arrival flagged at tolerance 0.3")
	}
	d := NewIntervalDetector()
	if d.Tolerance != 0.5 || d.MinSamples != 8 {
		t.Errorf("defaults = (%v, %d), want (0.5, 8)", d.Tolerance, d.MinSamples)
	}
}
