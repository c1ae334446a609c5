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

// Endpoint is one node's CANsec state within a zone.
type Endpoint struct {
	zone   *Zone
	nodeID uint16
	sendFV uint32
	peerFV map[uint16]*secchan.Counter // freshness state per sender
	Window uint32                      // acceptance window above peer counter

	macMsg []byte // scratch for the header‖payload MAC message
}

// NewEndpoint creates a node endpoint in the zone. nodeID must be unique
// within the zone (it scopes the freshness space).
func NewEndpoint(zone *Zone, nodeID uint16) *Endpoint {
	return &Endpoint{zone: zone, nodeID: nodeID, peerFV: make(map[uint16]*secchan.Counter), Window: 1024}
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
// given priority identifier.
func (e *Endpoint) Protect(priorityID uint32, payload []byte) (*canbus.Frame, error) {
	e.sendFV++
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint16(hdr[0:2], e.zone.ID)
	binary.BigEndian.PutUint16(hdr[2:4], e.nodeID)
	binary.BigEndian.PutUint32(hdr[4:8], e.sendFV)

	sci := uint64(e.zone.ID)<<16 | uint64(e.nodeID)
	var body []byte
	var err error
	if e.zone.Mode == AuthEncrypt {
		body, err = vcrypto.GCMSeal(e.zone.key, sci, e.sendFV, hdr, payload)
	} else {
		var tag []byte
		tag, err = vcrypto.GCMTag(e.zone.key, sci, e.sendFV, append(append([]byte(nil), hdr...), payload...))
		body = append(append([]byte(nil), payload...), tag...)
	}
	if err != nil {
		return nil, err
	}
	f := &canbus.Frame{
		ID:      priorityID,
		Format:  canbus.XL,
		SDUType: canbus.SDUCANsec,
		Payload: append(hdr, body...),
	}
	return f, f.Validate()
}

// Verify checks a CANsec frame and returns the authenticated payload.
func (e *Endpoint) Verify(f *canbus.Frame) ([]byte, error) {
	if f.SDUType != canbus.SDUCANsec {
		return nil, fmt.Errorf("cansec: SDU type %#x is not CANsec", f.SDUType)
	}
	return e.verifySDU(nil, f.Payload)
}

// verifySDU is Verify's core: it checks one CANsec SDU (frame payload)
// and appends the authenticated payload to dst.
func (e *Endpoint) verifySDU(dst, sdu []byte) ([]byte, error) {
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
	body := sdu[headerLen:]
	var payload []byte
	var err error
	if e.zone.Mode == AuthEncrypt {
		payload, err = vcrypto.GCMOpenInto(dst, e.zone.key, sci, fv, hdr, body)
		if err != nil {
			return nil, err
		}
	} else {
		if len(body) < tagLen {
			return nil, fmt.Errorf("cansec: short auth body")
		}
		pt := body[:len(body)-tagLen]
		tag := body[len(body)-tagLen:]
		msg := append(append(e.macMsg[:0], hdr...), pt...)
		e.macMsg = msg[:0]
		if !vcrypto.GCMVerifyTag(e.zone.key, sci, fv, msg, tag) {
			return nil, fmt.Errorf("cansec: tag verification failed")
		}
		payload = append(dst, pt...)
	}
	ctr.Commit(uint64(fv))
	return payload, nil
}
