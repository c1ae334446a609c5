package canbus

import (
	"autosec/internal/sim"
)

// Masquerader is the paper's headline CAN attack: because the bus has no
// sender authentication, a compromised node transmits frames carrying a
// safety-critical identifier (e.g. the engine controller's) and every
// receiver treats them as genuine.
type Masquerader struct {
	Bus      *Bus
	NodeName string // the attacker's real node id (ground truth only)
	TargetID uint32 // identifier being impersonated
	Format   Format
	Payload  []byte
	PeriodUs int64 // injection period in microseconds
	Count    int   // number of frames to inject
}

// Start schedules the injection campaign on the kernel.
func (m *Masquerader) Start(k *sim.Kernel) {
	period := sim.Time(m.PeriodUs) * sim.Microsecond
	for i := 0; i < m.Count; i++ {
		k.After(period*sim.Time(i+1), "attack/masquerade", func(k *sim.Kernel) {
			f := &Frame{ID: m.TargetID, Format: m.Format, Payload: m.Payload}
			if err := m.Bus.Send(m.NodeName, f); err == nil {
				k.Count("attack.masquerade.injected", 1)
			}
		})
	}
}

// Flooder performs a priority-flood denial of service: a stream of
// highest-priority (lowest identifier) frames that win every arbitration
// round and starve legitimate traffic.
type Flooder struct {
	Bus      *Bus
	NodeName string
	Format   Format
	PeriodUs int64
	Count    int
}

// Start schedules the flood.
func (fl *Flooder) Start(k *sim.Kernel) {
	period := sim.Time(fl.PeriodUs) * sim.Microsecond
	payload := make([]byte, 8)
	for i := 0; i < fl.Count; i++ {
		k.After(period*sim.Time(i+1), "attack/flood", func(k *sim.Kernel) {
			f := &Frame{ID: 0x000, Format: fl.Format, Payload: payload}
			if err := fl.Bus.Send(fl.NodeName, f); err == nil {
				k.Count("attack.flood.injected", 1)
			}
		})
	}
}

// BusOffAttacker uses the error-injection hook to corrupt every frame a
// victim transmits, driving the victim's transmit error counter to the
// bus-off limit — a targeted denial of service against one ECU.
type BusOffAttacker struct {
	VictimID uint32 // frames with this identifier get corrupted
}

// Install arms the attack on the bus.
func (a *BusOffAttacker) Install(b *Bus) {
	b.SetErrorInjector(func(f *Frame) bool {
		return f.ID == a.VictimID
	})
}
