// Package ethernet models automotive Ethernet for the in-vehicle
// network of the paper's §III: standard frames with optional VLAN tags,
// full-duplex point-to-point links (zone controller ↔ central compute),
// a learning switch, and 10BASE-T1S multidrop segments with PLCA
// (Physical Layer Collision Avoidance) round-robin transmit
// opportunities, which is what lets several endpoints share one
// unshielded twisted pair.
//
// Exercised by experiments fig3-fig6, tab1, exp-vehicle, and exp-zc.
package ethernet

import (
	"encoding/binary"
	"fmt"

	"autosec/internal/sim"
)

// MAC is a 6-byte hardware address.
type MAC [6]byte

// Broadcast is the all-ones destination.
var Broadcast = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// ParseMAC builds a MAC from 6 bytes.
func ParseMAC(b ...byte) (MAC, error) {
	var m MAC
	if len(b) != 6 {
		return m, fmt.Errorf("ethernet: MAC needs 6 bytes, got %d", len(b))
	}
	copy(m[:], b)
	return m, nil
}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EtherTypes the model uses.
const (
	EtherTypeIPv4   = 0x0800
	EtherTypeVLAN   = 0x8100
	EtherTypeMACsec = 0x88E5
	EtherTypeMKA    = 0x888E // EAPOL, carries MKA
	EtherTypeApp    = 0x9000 // simulation application payload
)

// Frame is an Ethernet II frame.
type Frame struct {
	Dst, Src  MAC
	VLAN      uint16 // 0 = untagged
	EtherType uint16
	Payload   []byte
}

// MinPayload and MaxPayload bound standard frame sizes.
const (
	MinPayload = 0 // the model does not pad
	MaxPayload = 1500
)

// Validate checks size constraints.
func (f *Frame) Validate() error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("ethernet: payload %d exceeds MTU %d", len(f.Payload), MaxPayload)
	}
	return nil
}

// WireBytes returns the frame's on-wire size including header, optional
// VLAN tag, FCS, preamble, and inter-frame gap.
func (f *Frame) WireBytes() int {
	n := 14 + len(f.Payload) + 4 // header + payload + FCS
	if f.VLAN != 0 {
		n += 4
	}
	return n + 8 + 12 // preamble/SFD + IFG
}

// Marshal serializes the frame (simulation format, header then payload).
func (f *Frame) Marshal() []byte {
	buf := make([]byte, 16+len(f.Payload))
	copy(buf[0:6], f.Dst[:])
	copy(buf[6:12], f.Src[:])
	binary.BigEndian.PutUint16(buf[12:14], f.VLAN)
	binary.BigEndian.PutUint16(buf[14:16], f.EtherType)
	copy(buf[16:], f.Payload)
	return buf
}

// Unmarshal reverses Marshal.
func Unmarshal(data []byte) (*Frame, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("ethernet: short frame %d bytes", len(data))
	}
	f := &Frame{
		VLAN:      binary.BigEndian.Uint16(data[12:14]),
		EtherType: binary.BigEndian.Uint16(data[14:16]),
		Payload:   append([]byte(nil), data[16:]...),
	}
	copy(f.Dst[:], data[0:6])
	copy(f.Src[:], data[6:12])
	return f, f.Validate()
}

// Clone returns a deep copy.
func (f *Frame) Clone() *Frame {
	c := *f
	c.Payload = append([]byte(nil), f.Payload...)
	return &c
}

// Port is anything that can accept a frame delivery.
type Port interface {
	PortMAC() MAC
	Receive(k *sim.Kernel, f *Frame)
}

// PortFunc adapts a function to Port.
type PortFunc struct {
	MAC MAC
	Fn  func(k *sim.Kernel, f *Frame)
}

func (p *PortFunc) PortMAC() MAC { return p.MAC }
func (p *PortFunc) Receive(k *sim.Kernel, f *Frame) {
	if p.Fn != nil {
		p.Fn(k, f)
	}
}

// Link is a full-duplex point-to-point Ethernet link between two ports.
type Link struct {
	name   string
	bps    int64
	kernel *sim.Kernel
	a, b   Port
	taps   []func(f *Frame)
	// Event and counter names, built once rather than per frame.
	deliverName, framesName, bytesName string
}

// NewLink creates a link at the given bit rate connecting a and b.
func NewLink(name string, bps int64, k *sim.Kernel, a, b Port) *Link {
	return &Link{name: name, bps: bps, kernel: k, a: a, b: b,
		deliverName: "eth/" + name + "/deliver",
		framesName:  "ethernet." + name + ".frames",
		bytesName:   "ethernet." + name + ".bytes",
	}
}

// Tap registers a frame observer (IDS, measurement).
func (l *Link) Tap(fn func(f *Frame)) { l.taps = append(l.taps, fn) }

// Send transmits f from the port identified by from to the opposite end
// after the serialization delay.
func (l *Link) Send(from MAC, f *Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	var dst Port
	switch from {
	case l.a.PortMAC():
		dst = l.b
	case l.b.PortMAC():
		dst = l.a
	default:
		return fmt.Errorf("ethernet: %v is not attached to link %s", from, l.name)
	}
	cp := f.Clone()
	dur := sim.Time(int64(cp.WireBytes()*8) * int64(sim.Second) / l.bps)
	l.kernel.After(dur, l.deliverName, func(k *sim.Kernel) {
		k.Count(l.framesName, 1)
		k.Count(l.bytesName, int64(cp.WireBytes()))
		for _, tap := range l.taps {
			tap(cp)
		}
		dst.Receive(k, cp)
	})
	return nil
}
