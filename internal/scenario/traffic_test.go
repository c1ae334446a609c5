package scenario

import (
	"fmt"
	"sync/atomic"
	"testing"

	"autosec/internal/canbus"
	"autosec/internal/ext"
	"autosec/internal/ids"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
	"autosec/internal/sim"
	"autosec/internal/vcrypto"
)

// simulateTrafficRef is the original traffic loop, kept as the
// reference simulateTraffic is pinned against: it formats every
// background frame's node name, allocates a fresh frame for every IDS
// observation and copies each period's wire on its own.
func simulateTrafficRef(sp *Spec, r *sim.RNG) (trial, error) {
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

	const victimID uint32 = 0x100
	victimNode := "z0-e0"
	attackerNode := fmt.Sprintf("z%d-attacker", sp.Attacker.Zone)
	period := sim.Time(sp.World.PeriodUS) * sim.Microsecond

	var interval *ids.IntervalDetector
	var sender *ids.SenderIdentifier
	if sp.IDS.Enabled {
		interval = ids.NewIntervalDetectorWith(sp.IDS.Tolerance, 8)
		sender = ids.NewSenderIdentifier(r.Fork())
		sender.MatchRadius = sp.IDS.MatchRadius
		sender.NoiseStd = sp.IDS.NoiseStd
		sender.Enroll(victimID, victimNode)
		for z := 0; z < sp.World.Zones; z++ {
			for e := 0; e < sp.World.EndpointsPerZone; e++ {
				sender.KnowNode(fmt.Sprintf("z%d-e%d", z, e))
			}
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
	observe := func(step int, at sim.Time, f *canbus.Frame) {
		if interval == nil {
			return
		}
		alerts := 0
		if interval.Observe(at, f) != nil {
			alerts++
		}
		if sender.Observe(at, f) != nil {
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
	frameFrom := func(id uint32, node string) *canbus.Frame {
		return &canbus.Frame{ID: id, Format: canbus.FD, SourceID: node}
	}

	delayed := make(map[int][][]byte)
	payload := make([]byte, sp.World.FrameBytes)
	st := &TrafficStep{
		Spec:    sp,
		RNG:     r,
		Period:  period,
		res:     &res,
		suite:   suite,
		history: make([][]byte, 0, sp.World.Frames),
		delayed: delayed,
		observe: func(step int, at sim.Time, id uint32, node string) {
			observe(step, at, frameFrom(id, node))
		},
		victimID:     victimID,
		attackerNode: attackerNode,
	}

	for step := 0; step < sp.World.Frames; step++ {
		now := sim.Time(step) * period
		if step == warmupSteps && interval != nil {
			interval.EndTraining()
		}

		for z := 0; z < sp.World.Zones; z++ {
			for e := 0; e < sp.World.EndpointsPerZone; e++ {
				if z == 0 && e == 0 {
					continue
				}
				id := uint32(0x200 + z*16 + e)
				observe(step, now, frameFrom(id, fmt.Sprintf("z%d-e%d", z, e)))
			}
		}

		attacking := behaviour != nil &&
			step >= attackStart && (step-attackStart)%sp.Attacker.Every == 0

		r.Bytes(payload)
		wire, err := suite.Protect(payload)
		if err != nil {
			return res, fmt.Errorf("%s Protect: %w", sp.Protocol.Suite, err)
		}
		wireCopy := append([]byte(nil), wire...)
		st.history = append(st.history, wireCopy)
		res.sent++
		st.Step, st.Now, st.Wire = step, now, wireCopy

		if !(attacking && behaviour.Deliver(st)) {
			if _, err := suite.Verify(wire); err == nil {
				res.delivered++
			} else {
				res.verifyFailed++
			}
			observe(step, now, frameFrom(victimID, victimNode))
		}

		for j, w := range delayed[step] {
			if _, err := suite.Verify(w); err == nil {
				res.lateAccepted++
			} else {
				res.lateRejected++
			}
			observe(step, now+sim.Time(j+1), frameFrom(victimID, attackerNode))
		}
		delete(delayed, step)

		if attacking {
			behaviour.Inject(st)
		}
	}
	return res, nil
}

// checkTrafficMatchesReference runs one replicate of sp through the
// interpreter and through the reference, each on its own RNG seeded
// with seed, and requires the same trial, the same error, the same
// number of draws and the same next draw.
func checkTrafficMatchesReference(sp *Spec, seed int64) error {
	rng, refRNG := sim.NewRNG(seed), sim.NewRNG(seed)
	got, err := simulateTraffic(sp, rng)
	want, refErr := simulateTrafficRef(sp, refRNG)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		return fmt.Errorf("%s seed %d: error %v, reference %v", sp.Name, seed, err, refErr)
	}
	if got != want {
		return fmt.Errorf("%s seed %d: trial %+v, reference %+v", sp.Name, seed, got, want)
	}
	if rng.Draws() != refRNG.Draws() {
		return fmt.Errorf("%s seed %d: %d draws, reference %d", sp.Name, seed, rng.Draws(), refRNG.Draws())
	}
	if rng.Uint64() != refRNG.Uint64() {
		return fmt.Errorf("%s seed %d: the next draw differs from the reference's", sp.Name, seed)
	}
	return nil
}

// CheckTrafficMatchesReference exposes checkTrafficMatchesReference to
// the external tests, which link in the drop-in attacks of
// internal/ext/demo.
var CheckTrafficMatchesReference = checkTrafficMatchesReference

// TestTrafficAllocsFlatInEndpoints locks in that background frames do
// not allocate: one replicate at 6 endpoints per zone observes 10 more
// background frames per period than at 1, yet may allocate fewer than
// Frames more times in total, which is less than one allocation per
// period (the per-replicate set-up of the extra endpoints is allowed).
func TestTrafficAllocsFlatInEndpoints(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(endpoints int) float64 {
		sp := DefaultSpec("allocs")
		sp.Attacker.Type = AttackMasquerade
		sp.World.EndpointsPerZone = endpoints
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := simulateTraffic(sp, sim.NewRNG(42)); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, six := allocs(1), allocs(6)
	t.Logf("allocations per replicate: %.0f at 1 endpoint per zone, %.0f at 6", one, six)
	if frames := float64(DefaultSpec("allocs").World.Frames); six-one >= frames {
		t.Errorf("%.0f allocations at 6 endpoints per zone vs %.0f at 1: %.0f more, want fewer than %.0f (one per period)",
			six, one, six-one, frames)
	}
}

// historyClobbers counts the steps on which appending to the previous
// period's history entry changed the current period's wire.
var historyClobbers atomic.Int64

func init() {
	Attacks.Register(ext.Meta{Name: "history-append",
		Description: "test probe: appends to the previous period's wire history entry"},
		AttackSpec{New: func(*Spec) AttackBehaviour { return historyAppend{} }})
}

// historyAppend appends a byte to the previous period's wire, which
// sits just before the current one in the history's backing array.
type historyAppend struct{}

func (historyAppend) Deliver(*TrafficStep) bool { return false }
func (historyAppend) Inject(st *TrafficStep) {
	prev := st.History(st.Step - 1)
	if prev == nil || len(st.Wire) == 0 {
		return
	}
	want := st.Wire[0]
	_ = append(prev, ^want)
	if st.Wire[0] != want {
		historyClobbers.Add(1)
	}
}

// TestHistoryEntriesCapped: a behaviour appending to one history entry
// must not overwrite the next entry.
func TestHistoryEntriesCapped(t *testing.T) {
	sp := DefaultSpec("history-append")
	sp.Attacker.Type = "history-append"
	sp.Attacker.Every = 1
	if _, err := simulateTraffic(sp, sim.NewRNG(42)); err != nil {
		t.Fatal(err)
	}
	if n := historyClobbers.Load(); n > 0 {
		t.Errorf("appending to a history entry overwrote the next period's wire on %d steps", n)
	}
}
