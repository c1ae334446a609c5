package scenario

import (
	"autosec/internal/core"
	"autosec/internal/ext"
	"autosec/internal/sim"
)

// AttackBehaviour interprets one attacker type inside the traffic
// loop. One behaviour instance drives one replicate, so
// implementations may keep per-replicate state, such as a reused frame
// buffer; they must draw randomness only from the step's RNG.
type AttackBehaviour interface {
	// Deliver handles the victim's protected frame on an attacking
	// step: tamper with it, withhold it, or leave it alone. Returning
	// true means the behaviour owned delivery; false falls through to
	// the normal verify-and-deliver path.
	Deliver(st *TrafficStep) bool
	// Inject runs after delivery and late-frame release on an attacking
	// step — the hook for adding frames on top of the victim's traffic.
	Inject(st *TrafficStep)
}

// AttackSpec is the registered form of one attacker type (ext kind
// "attack"). Exactly one of New/Run drives execution: New builds the
// per-replicate traffic behaviour (nil for AttackNone, which stages
// nothing), Run replaces the traffic interpreter with a whole-run
// body (the kill chain).
type AttackSpec struct {
	// New builds the behaviour driving one replicate; called once per
	// replicate before its traffic loop starts.
	New func(sp *Spec) AttackBehaviour
	// Run, when non-nil, interprets the scenario without the traffic
	// loop.
	Run func(sp *Spec, rc *core.RunContext) (string, error)
}

// Attacks is the attack-type extension registry. The paper's taxonomy
// registers below in canonical order; drop-in attacks register from
// their own file (see internal/ext/demo) and become stageable from
// scenario.ini [attacker] sections — without entering AttackTypes(),
// the corpus generator's mutation vocabulary.
var Attacks = ext.NewRegistry[AttackSpec]("attack")

func init() {
	reg := func(rank int, name, desc, paper string, s AttackSpec) {
		Attacks.Register(ext.Meta{Name: name, Description: desc, Paper: paper,
			Caps: []string{ext.CapCore}, Rank: rank}, s)
	}
	reg(1, AttackNone, "clean traffic baseline: no attacker, IDS alerts are all false positives",
		"§III baseline", AttackSpec{})
	reg(2, AttackReplay, "re-inject a captured protected frame Offset periods after capture",
		"§IV replay; probes the suites' anti-replay windows", AttackSpec{
			New: func(*Spec) AttackBehaviour { return replayAttack{} }})
	reg(3, AttackForge, "MITM-tamper the victim's frame, guessing the (truncated) MAC",
		"§IV forgery; the SECOC mac_bits acceptance boundary", AttackSpec{
			New: func(sp *Spec) AttackBehaviour { return &forgeAttack{tag: forgedTagBytes(sp)} }})
	reg(4, AttackMasquerade, "inject crafted frames under the victim's CAN identifier",
		"§IV masquerade; caught by EASI-style sender identification [52]", AttackSpec{
			New: func(*Spec) AttackBehaviour { return &masqueradeAttack{} }})
	reg(5, AttackFlood, "burst-inject frames each attacked period (bus-load DoS)",
		"§IV flooding; the interval detector's injection signature", AttackSpec{
			New: func(*Spec) AttackBehaviour { return floodAttack{} }})
	reg(6, AttackDelay, "withhold frames and release them Offset periods late",
		"§IV jam-and-release; probes replay-window edges from inside", AttackSpec{
			New: func(*Spec) AttackBehaviour { return delayAttack{} }})
	reg(7, AttackKillChain, "the Fig. 8 telemetry-cloud kill chain vs a defence subset",
		"Fig. 8; §VI fleet-wide breach", AttackSpec{Run: runKillChain})
}

// AttackTypes lists every built-in attacker type in canonical order —
// the core-capped slice of the extension registry, and the vocabulary
// the corpus generator mutates over.
func AttackTypes() []string {
	return Attacks.NamesWith(ext.CapCore)
}

// TrafficStep is the per-step view a behaviour manipulates. The
// exported fields are read-only context; all effect on the replicate's
// counters and the IDS taps goes through the methods, which reproduce
// the accounting of the built-in attacks exactly — a drop-in attack
// composed from them stays inside the determinism contract for free.
type TrafficStep struct {
	// Spec is the scenario under interpretation.
	Spec *Spec
	// RNG is the replicate's random stream.
	RNG *sim.RNG
	// Step is the current period index; Now its bus time.
	Step int
	Now  sim.Time
	// Period is the victim stream's transmission period.
	Period sim.Time
	// Wire is the victim's protected frame of this period.
	Wire []byte

	res          *trial
	suite        interface{ Verify([]byte) ([]byte, error) }
	history      [][]byte
	delayed      map[int][][]byte
	observe      func(step int, at sim.Time, id uint32, node string)
	victimID     uint32
	attackerNode string
}

// Withhold removes the victim's frame from the bus this step and
// schedules it to re-appear at the given later step, where it probes
// the suite's replay window as late traffic.
func (st *TrafficStep) Withhold(releaseStep int) {
	st.delayed[releaseStep] = append(st.delayed[releaseStep], st.Wire)
}

// DeliverAttack presents wire to the receiver in place of the victim's
// frame: counted as injected, acceptance counts as both an accepted
// attack and a delivered frame, rejection as a verify failure; the IDS
// taps see one attacker transmission at the frame's nominal time.
func (st *TrafficStep) DeliverAttack(wire []byte) bool {
	st.res.injected++
	_, err := st.suite.Verify(wire)
	if err == nil {
		st.res.attackAccepted++
		st.res.delivered++
	} else {
		st.res.verifyFailed++
	}
	st.ObserveAttacker(st.Now)
	return err == nil
}

// InjectWire offers one extra frame on top of the victim's traffic at
// time at: counted as injected, acceptance as an accepted attack; the
// IDS taps see one attacker transmission at at.
func (st *TrafficStep) InjectWire(wire []byte, at sim.Time) bool {
	st.res.injected++
	ok := false
	if _, err := st.suite.Verify(wire); err == nil {
		st.res.attackAccepted++
		ok = true
	}
	st.ObserveAttacker(at)
	return ok
}

// CountInjected records an attack frame that never reaches the suite —
// pure bus pressure, as in flooding.
func (st *TrafficStep) CountInjected() { st.res.injected++ }

// ObserveAttacker shows the IDS taps one attacker transmission under
// the victim's identifier at time at.
func (st *TrafficStep) ObserveAttacker(at sim.Time) {
	st.observe(st.Step, at, st.victimID, st.attackerNode)
}

// History returns the victim's protected wire captured at an earlier
// step, or nil when idx predates the run.
func (st *TrafficStep) History(idx int) []byte {
	if idx < 0 || idx >= len(st.history) {
		return nil
	}
	return st.history[idx]
}

// --- built-in behaviours ---

type replayAttack struct{}

func (replayAttack) Deliver(*TrafficStep) bool { return false }
func (replayAttack) Inject(st *TrafficStep) {
	if idx := st.Step - st.Spec.Attacker.Offset; idx >= 0 {
		st.InjectWire(st.History(idx), st.Now+st.Period/2)
	}
}

// forgeAttack tampers with the victim's frame in buf, which it reuses
// on every step: a suite does not keep the wire it verifies.
type forgeAttack struct {
	tag int // trailing wire bytes to guess (forgedTagBytes)
	buf []byte
}

func (f *forgeAttack) Deliver(st *TrafficStep) bool {
	// Flip a payload bit and guess the tag. With a truncated MAC (SECOC
	// mac_bits) the guess lands with probability 2^-bits — the
	// detection/acceptance boundary the generator searches.
	f.buf = append(f.buf[:0], st.Wire...)
	tampered := f.buf
	tampered[len(tampered)/2] ^= 0x04
	tag := min(f.tag, len(tampered))
	st.RNG.Bytes(tampered[len(tampered)-tag:])
	st.DeliverAttack(tampered)
	return true
}
func (*forgeAttack) Inject(*TrafficStep) {}

// masqueradeAttack crafts its frames in buf, reused on every step.
type masqueradeAttack struct{ buf []byte }

func (*masqueradeAttack) Deliver(*TrafficStep) bool { return false }
func (m *masqueradeAttack) Inject(st *TrafficStep) {
	if cap(m.buf) < len(st.Wire) {
		m.buf = make([]byte, len(st.Wire))
	}
	fake := m.buf[:len(st.Wire)]
	st.RNG.Bytes(fake)
	st.InjectWire(fake, st.Now+st.Period/2)
}

type floodAttack struct{}

func (floodAttack) Deliver(*TrafficStep) bool { return false }
func (floodAttack) Inject(st *TrafficStep) {
	rate := st.Spec.Attacker.Rate
	for j := 0; j < rate; j++ {
		st.CountInjected()
		st.ObserveAttacker(st.Now + sim.Time(j+1)*st.Period/sim.Time(rate+1))
	}
}

type delayAttack struct{}

func (delayAttack) Deliver(st *TrafficStep) bool {
	// Jam-and-release: the receiver sees nothing now; the frame
	// re-appears Offset periods later, probing the replay window.
	st.Withhold(st.Step + st.Spec.Attacker.Offset)
	return true
}
func (delayAttack) Inject(*TrafficStep) {}
