package canbus

import (
	"fmt"
	"sort"

	"autosec/internal/sim"
)

// BitRates for the bus phases, in bits per virtual second.
type BitRates struct {
	NominalBps int // arbitration phase (all formats)
	DataBps    int // data phase (FD/XL switch to this)
}

// DefaultBitRates returns typical automotive rates: 500 kbit/s nominal,
// 2 Mbit/s FD data phase, 10 Mbit/s XL data phase is set per bus.
func DefaultBitRates() BitRates {
	return BitRates{NominalBps: 500_000, DataBps: 2_000_000}
}

// Node is anything attached to a bus. Receive is called for every frame
// the bus delivers (CAN is a broadcast medium); it must not block.
type Node interface {
	// NodeID returns the simulation identity (harness bookkeeping).
	NodeID() string
	// Receive handles a delivered frame at virtual time now.
	Receive(k *sim.Kernel, f *Frame)
}

// busOffThreshold is the transmit error counter value at which a node
// enters bus-off, per ISO 11898-1.
const busOffThreshold = 256

// pendingTx is a queued transmission attempt.
type pendingTx struct {
	frame  *Frame
	sender string
	queued sim.Time
	seq    int
}

// Bus is a broadcast CAN segment with priority arbitration. All frames
// queued by attached nodes contend; at each idle point the lowest
// identifier wins, exactly the CSMA/CR behaviour masquerade and
// priority-flood attacks exploit.
type Bus struct {
	name    string
	rates   BitRates
	kernel  *sim.Kernel
	nodes   []Node
	queue   []*pendingTx
	busy    bool
	seq     int
	tec     map[string]int  // transmit error counters
	busOff  map[string]bool // nodes locked out after TEC overflow
	taps    []func(f *Frame)
	sabotor func(f *Frame) bool // error-injection attacker hook
	// Counter and series names, built once: the kernel drops them
	// when untraced, so building them per frame allocates for nothing.
	errorsName, busOffName, deliveredName, bitsName, latencyName string
}

// NewBus creates a bus bound to a kernel.
func NewBus(name string, rates BitRates, k *sim.Kernel) *Bus {
	prefix := "canbus." + name
	return &Bus{
		name:          name,
		rates:         rates,
		kernel:        k,
		tec:           make(map[string]int),
		busOff:        make(map[string]bool),
		errorsName:    prefix + ".errors",
		busOffName:    prefix + ".busoff",
		deliveredName: prefix + ".delivered",
		bitsName:      prefix + ".bits",
		latencyName:   prefix + ".latency_us",
	}
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// Attach adds a node to the bus.
func (b *Bus) Attach(n Node) { b.nodes = append(b.nodes, n) }

// Tap registers an observer invoked for every delivered frame (used by
// IDS components; a real IDS is just another node listening).
func (b *Bus) Tap(fn func(f *Frame)) { b.taps = append(b.taps, fn) }

// SetErrorInjector installs an attacker hook that may corrupt a frame in
// flight: returning true marks the frame as hit by an error flag, which
// charges the *transmitter's* error counter — the mechanism behind
// bus-off attacks on victim ECUs.
func (b *Bus) SetErrorInjector(fn func(f *Frame) bool) { b.sabotor = fn }

// Send queues a frame for transmission from the named sender. The frame
// is validated; the sender string is recorded as ground truth. Actual
// delivery happens via the kernel after arbitration and wire time.
func (b *Bus) Send(sender string, f *Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if b.busOff[sender] {
		return fmt.Errorf("canbus: node %s is bus-off", sender)
	}
	cp := f.Clone()
	cp.SourceID = sender
	b.queue = append(b.queue, &pendingTx{frame: cp, sender: sender, queued: b.kernel.Now(), seq: b.seq})
	b.seq++
	if !b.busy {
		b.arbitrate()
	}
	return nil
}

// arbitrate picks the highest-priority queued frame and schedules its
// completion. Lowest identifier wins; ties (same ID from different
// nodes, the masquerade situation) resolve by queue order, modelling a
// bit-identical arbitration field where neither party backs off.
func (b *Bus) arbitrate() {
	if len(b.queue) == 0 {
		b.busy = false
		return
	}
	b.busy = true
	sort.SliceStable(b.queue, func(i, j int) bool {
		if b.queue[i].frame.ID != b.queue[j].frame.ID {
			return b.queue[i].frame.ID < b.queue[j].frame.ID
		}
		return b.queue[i].seq < b.queue[j].seq
	})
	tx := b.queue[0]
	b.queue = b.queue[1:]

	dur := b.wireTime(tx.frame)
	b.kernel.After(dur, fmt.Sprintf("can/%s/deliver id=%#x", b.name, tx.frame.ID), func(k *sim.Kernel) {
		b.complete(k, tx)
	})
}

// complete finishes a transmission: either the error injector destroys
// it (charging the sender's TEC) or it is delivered to every node.
func (b *Bus) complete(k *sim.Kernel, tx *pendingTx) {
	if b.sabotor != nil && b.sabotor(tx.frame) {
		b.tec[tx.sender] += 8 // TEC penalty per ISO 11898-1
		k.Count(b.errorsName, 1)
		if b.tec[tx.sender] >= busOffThreshold && !b.busOff[tx.sender] {
			b.busOff[tx.sender] = true
			k.Count(b.busOffName, 1)
		}
		// A real controller retransmits automatically until bus-off.
		if !b.busOff[tx.sender] {
			b.queue = append(b.queue, tx)
		}
		b.arbitrate()
		return
	}
	if b.tec[tx.sender] > 0 {
		b.tec[tx.sender]-- // successful transmission decrements TEC
	}
	k.Count(b.deliveredName, 1)
	k.Count(b.bitsName, int64(tx.frame.WireBits()))
	k.Sample(b.latencyName, float64(k.Now()-tx.queued)/float64(sim.Microsecond))
	for _, tap := range b.taps {
		tap(tx.frame)
	}
	for _, n := range b.nodes {
		if n.NodeID() == tx.sender {
			continue // a CAN controller does not receive its own frame
		}
		n.Receive(k, tx.frame)
	}
	b.arbitrate()
}

// wireTime computes how long the frame occupies the bus.
func (b *Bus) wireTime(f *Frame) sim.Time {
	bits := f.WireBits()
	// Arbitration+control portion at nominal rate, data at data rate
	// for FD/XL. Approximate the split: header bits at nominal.
	headerBits := 44
	if f.Format != Classic {
		dataBits := 8 * len(f.Payload)
		headerNs := int64(headerBits) * int64(sim.Second) / int64(b.rates.NominalBps)
		dataNs := int64(bits-headerBits-dataBits)*int64(sim.Second)/int64(b.rates.NominalBps) +
			int64(dataBits)*int64(sim.Second)/int64(b.rates.DataBps)
		return sim.Time(headerNs + dataNs)
	}
	return sim.Time(int64(bits) * int64(sim.Second) / int64(b.rates.NominalBps))
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc struct {
	ID string
	Fn func(k *sim.Kernel, f *Frame)
}

func (n *NodeFunc) NodeID() string { return n.ID }

func (n *NodeFunc) Receive(k *sim.Kernel, f *Frame) {
	if n.Fn != nil {
		n.Fn(k, f)
	}
}
