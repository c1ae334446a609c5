package ethernet

import (
	"fmt"

	"autosec/internal/sim"
)

// Multidrop is a 10BASE-T1S segment (IEEE 802.3cg): several endpoints
// share one 10 Mbit/s single-pair bus. PLCA (Physical Layer Collision
// Avoidance) hands out transmit opportunities round-robin by node index,
// so access latency is bounded and deterministic — but, like CAN, the
// medium is a broadcast wire with no sender authentication, which is why
// the paper pairs it with MACsec in scenarios S2/S3.
type Multidrop struct {
	bps     int64
	kernel  *sim.Kernel
	nodes   []Port
	queues  [][]*Frame
	cycling bool
	taps    []func(f *Frame)
	// BeaconNs is the per-node transmit-opportunity overhead when a
	// node has nothing to send (the PLCA silence slot).
	BeaconNs int64
	// Event and counter names, built once rather than per frame.
	cycleName, toName, deliverName, framesName, bytesName string
}

// NewMultidrop creates an empty 10BASE-T1S segment.
func NewMultidrop(name string, k *sim.Kernel) *Multidrop {
	return &Multidrop{bps: 10_000_000, kernel: k, BeaconNs: 2000,
		cycleName:   "t1s/" + name + "/cycle",
		toName:      "t1s/" + name + "/to",
		deliverName: "t1s/" + name + "/deliver",
		framesName:  "t1s." + name + ".frames",
		bytesName:   "t1s." + name + ".bytes",
	}
}

// Attach adds a node; its PLCA ID is its attach order.
func (m *Multidrop) Attach(p Port) int {
	m.nodes = append(m.nodes, p)
	m.queues = append(m.queues, nil)
	return len(m.nodes) - 1
}

// Tap registers a frame observer.
func (m *Multidrop) Tap(fn func(f *Frame)) { m.taps = append(m.taps, fn) }

// Send queues a frame from the node with the given PLCA id.
func (m *Multidrop) Send(plcaID int, f *Frame) error {
	if plcaID < 0 || plcaID >= len(m.nodes) {
		return fmt.Errorf("ethernet: plca id %d out of range", plcaID)
	}
	if err := f.Validate(); err != nil {
		return err
	}
	m.queues[plcaID] = append(m.queues[plcaID], f.Clone())
	if !m.cycling {
		m.cycling = true
		m.kernel.After(0, m.cycleName, func(k *sim.Kernel) { m.cycle(k, 0) })
	}
	return nil
}

// cycle runs PLCA transmit opportunities starting at node idx.
func (m *Multidrop) cycle(k *sim.Kernel, idx int) {
	// Stop when all queues are drained.
	empty := true
	for _, q := range m.queues {
		if len(q) > 0 {
			empty = false
			break
		}
	}
	if empty {
		m.cycling = false
		return
	}
	next := (idx + 1) % len(m.nodes)
	if len(m.queues[idx]) == 0 {
		// Silent transmit opportunity: just the beacon delay.
		k.After(sim.Time(m.BeaconNs), m.toName, func(k *sim.Kernel) { m.cycle(k, next) })
		return
	}
	f := m.queues[idx][0]
	m.queues[idx] = m.queues[idx][1:]
	dur := sim.Time(int64(f.WireBytes()*8) * int64(sim.Second) / m.bps)
	sender := m.nodes[idx].PortMAC()
	k.After(dur, m.deliverName, func(k *sim.Kernel) {
		k.Count(m.framesName, 1)
		k.Count(m.bytesName, int64(f.WireBytes()))
		for _, tap := range m.taps {
			tap(f)
		}
		for i, n := range m.nodes {
			if n.PortMAC() == sender && i == idx {
				continue
			}
			n.Receive(k, f)
		}
		m.cycle(k, next)
	})
}
