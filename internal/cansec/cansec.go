// Package cansec implements a CANsec model after the CiA 613-2 working
// draft the paper cites ([19]): link-layer security for CAN XL,
// "inspired by MACsec". Nodes belong to a secure zone sharing a zone
// key; each protected frame carries the zone id, a 32-bit freshness
// counter, and an AES-GCM tag (with optional encryption), all inside a
// CAN XL frame whose SDU type marks it as CANsec.
//
// Exercised by experiment tab1.
package cansec

import (
	"encoding/binary"
	"fmt"

	"autosec/internal/canbus"
	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// header: zoneID(2) srcNode(2) freshness(4)
const headerLen = 8
const tagLen = 16

// Overhead is the bytes CANsec adds to each protected payload.
const Overhead = headerLen + tagLen

// Mode selects confidentiality.
type Mode int

const (
	// AuthOnly authenticates the payload (plaintext on the bus).
	AuthOnly Mode = iota
	// AuthEncrypt authenticates and encrypts.
	AuthEncrypt
)

// Zone is a CANsec secure zone: the set of nodes sharing one key.
type Zone struct {
	ID   uint16
	Mode Mode
	key  []byte
}

// NewZone creates a secure zone with the given 16-byte key.
func NewZone(id uint16, mode Mode, key []byte) (*Zone, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("cansec: zone key must be 16 bytes")
	}
	return &Zone{ID: id, Mode: mode, key: append([]byte(nil), key...)}, nil
}

// Endpoint is one node's CANsec state within a zone. Not safe for
// concurrent use.
type Endpoint struct {
	zone   *Zone
	nodeID uint16
	gcm    *vcrypto.GCM // keyed with the zone key, owned by this node
	sendFV uint32
	peerFV map[uint16]*secchan.Counter // freshness state per sender
	Window uint32                      // acceptance window above peer counter
}

// NewEndpoint creates a node endpoint in the zone. nodeID must be unique
// within the zone (it scopes the freshness space).
func NewEndpoint(zone *Zone, nodeID uint16) *Endpoint {
	gcm, _ := vcrypto.NewGCM(zone.key) // cannot fail: NewZone checked the key
	return &Endpoint{zone: zone, nodeID: nodeID, gcm: gcm, peerFV: make(map[uint16]*secchan.Counter), Window: 1024}
}

// peer returns the freshness counter for a sending node, created on
// first contact and kept in sync with the endpoint's Window setting.
func (e *Endpoint) peer(src uint16) *secchan.Counter {
	c, ok := e.peerFV[src]
	if !ok {
		c = &secchan.Counter{}
		e.peerFV[src] = c
	}
	c.Window = uint64(e.Window)
	return c
}

// Protect wraps payload into a CANsec-protected CAN XL frame with the
// given priority identifier. The SDU is assembled in one buffer: header
// ‖ sealed payload, or header ‖ payload ‖ tag in AuthOnly mode, where
// the tag covers header ‖ payload.
func (e *Endpoint) Protect(priorityID uint32, payload []byte) (*canbus.Frame, error) {
	e.sendFV++
	sdu := make([]byte, headerLen, Overhead+len(payload))
	binary.BigEndian.PutUint16(sdu[0:2], e.zone.ID)
	binary.BigEndian.PutUint16(sdu[2:4], e.nodeID)
	binary.BigEndian.PutUint32(sdu[4:8], e.sendFV)

	sci := uint64(e.zone.ID)<<16 | uint64(e.nodeID)
	if e.zone.Mode == AuthEncrypt {
		sdu = e.gcm.Seal(sdu, sci, e.sendFV, sdu[:headerLen], payload)
	} else {
		sdu = append(sdu, payload...)
		sdu = e.gcm.Seal(sdu, sci, e.sendFV, sdu, nil)
	}
	f := &canbus.Frame{
		ID:      priorityID,
		Format:  canbus.XL,
		SDUType: canbus.SDUCANsec,
		Payload: sdu,
	}
	return f, f.Validate()
}

// Verify checks a CANsec frame and returns the authenticated payload.
func (e *Endpoint) Verify(f *canbus.Frame) ([]byte, error) {
	if f.SDUType != canbus.SDUCANsec {
		return nil, fmt.Errorf("cansec: SDU type %#x is not CANsec", f.SDUType)
	}
	sdu := f.Payload
	if len(sdu) < Overhead {
		return nil, fmt.Errorf("cansec: frame too short")
	}
	hdr := sdu[:headerLen]
	zoneID := binary.BigEndian.Uint16(hdr[0:2])
	src := binary.BigEndian.Uint16(hdr[2:4])
	fv := binary.BigEndian.Uint32(hdr[4:8])
	if zoneID != e.zone.ID {
		return nil, fmt.Errorf("cansec: zone %d, expected %d", zoneID, e.zone.ID)
	}
	ctr := e.peer(src)
	if !ctr.Accept(uint64(fv)) {
		last := uint32(ctr.Last())
		return nil, fmt.Errorf("cansec: freshness %d outside (%d, %d]", fv, last, last+e.Window)
	}

	sci := uint64(zoneID)<<16 | uint64(src)
	var payload []byte
	if e.zone.Mode == AuthEncrypt {
		var err error
		payload, err = e.gcm.Open(nil, sci, fv, hdr, sdu[headerLen:])
		if err != nil {
			return nil, err
		}
	} else {
		covered := sdu[:len(sdu)-tagLen] // header ‖ payload
		if _, err := e.gcm.Open(nil, sci, fv, covered, sdu[len(covered):]); err != nil {
			return nil, fmt.Errorf("cansec: tag verification failed")
		}
		payload = append([]byte(nil), covered[headerLen:]...)
	}
	ctr.Commit(uint64(fv))
	return payload, nil
}
