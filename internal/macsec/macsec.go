// Package macsec implements IEEE 802.1AE MACsec (paper ref [20]) for the
// in-vehicle Ethernet links of §III: per-channel AES-GCM protection with
// a SecTAG carrying the packet number, strict replay protection, both
// confidentiality and integrity-only modes, and an MKA-style key
// agreement (paper ref [25]) that derives and distributes session keys
// (SAKs) from a pre-shared connectivity association key (CAK).
//
// Exercised by experiments tab1, fig4-fig6, exp-vehicle, and exp-zc.
package macsec

import (
	"encoding/binary"
	"fmt"

	"autosec/internal/ethernet"
	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// Mode selects the protection applied to the user data.
type Mode int

const (
	// Confidential encrypts and authenticates (TCI E=1, C=1).
	Confidential Mode = iota
	// IntegrityOnly authenticates without encrypting (E=0).
	IntegrityOnly
)

func (m Mode) String() string {
	if m == Confidential {
		return "confidential"
	}
	return "integrity-only"
}

// SecTAG is the MACsec security tag.
type SecTAG struct {
	AN  uint8  // association number (0–3)
	PN  uint32 // packet number
	SCI uint64 // secure channel identifier
	Enc bool   // E bit: payload encrypted
}

const secTAGLen = 14 // simplified fixed-length tag: flags+AN, PN, SCI
const icvLen = 16

// put writes the SecTAG into b[:secTAGLen].
func (t SecTAG) put(b []byte) {
	flags := t.AN & 0x03
	if t.Enc {
		flags |= 0x08
	}
	b[0], b[1] = flags, 0
	binary.BigEndian.PutUint32(b[2:6], t.PN)
	binary.BigEndian.PutUint64(b[6:14], t.SCI)
}

func parseSecTAG(b []byte) (SecTAG, error) {
	if len(b) < secTAGLen {
		return SecTAG{}, fmt.Errorf("macsec: short SecTAG")
	}
	return SecTAG{
		AN:  b[0] & 0x03,
		Enc: b[0]&0x08 != 0,
		PN:  binary.BigEndian.Uint32(b[2:6]),
		SCI: binary.BigEndian.Uint64(b[6:14]),
	}, nil
}

// SCIFromMAC builds a secure channel identifier from a MAC and port id,
// as 802.1AE does.
func SCIFromMAC(mac ethernet.MAC, port uint16) uint64 {
	var b [8]byte
	copy(b[:6], mac[:])
	binary.BigEndian.PutUint16(b[6:], port)
	return binary.BigEndian.Uint64(b[:])
}

// SecY is a MACsec entity on one port: it protects egress frames on its
// transmit secure channel and verifies ingress frames from known peer
// channels. Not safe for concurrent use.
type SecY struct {
	mode  Mode
	sci   uint64
	an    uint8
	gcm   *vcrypto.GCM // keyed with the transmit SAK
	nexPN uint32
	// rx state per peer SCI
	peers map[uint64]*rxChannel
	// ReplayWindow 0 means strict in-order; >0 tolerates reordering.
	ReplayWindow uint32

	// Per-frame scratch: the AAD, and on receive the opened inner
	// frame (EtherType ‖ payload) before its payload is copied out.
	aad, inner []byte
}

type rxChannel struct {
	gcm    *vcrypto.GCM // keyed with the peer's SAK
	an     uint8
	highPN uint32
}

// NewSecY creates a MACsec entity for a transmit channel identified by
// sci, initially keyed with sak under association number an.
func NewSecY(mode Mode, sci uint64, sak []byte, an uint8) (*SecY, error) {
	if len(sak) != 16 && len(sak) != 32 {
		return nil, fmt.Errorf("macsec: SAK must be 16 or 32 bytes, got %d", len(sak))
	}
	gcm, err := vcrypto.NewGCM(sak)
	if err != nil {
		return nil, err
	}
	return &SecY{
		mode: mode, sci: sci, an: an & 3,
		gcm:   gcm,
		nexPN: 1,
		peers: make(map[uint64]*rxChannel),
	}, nil
}

// AddPeer registers a receive channel keyed with the peer's SAK. Adding
// a known SCI again installs the new SAK and association number and
// restarts its replay state, as a rekey does.
func (s *SecY) AddPeer(sci uint64, sak []byte, an uint8) error {
	if len(sak) != 16 && len(sak) != 32 {
		return fmt.Errorf("macsec: peer SAK length %d", len(sak))
	}
	gcm, err := vcrypto.NewGCM(sak)
	if err != nil {
		return err
	}
	s.peers[sci] = &rxChannel{gcm: gcm, an: an & 3}
	return nil
}

// Protect wraps an Ethernet frame in MACsec: the original EtherType and
// payload become the secure data; the SecTAG is authenticated as
// associated data together with the MAC addresses. The protected
// payload is assembled in one buffer: SecTAG ‖ inner frame, sealed in
// place (confidential) or followed by its ICV (integrity-only).
func (s *SecY) Protect(f *ethernet.Frame) (*ethernet.Frame, error) {
	if s.nexPN == 0 {
		return nil, fmt.Errorf("macsec: transmit PN exhausted; rekey required")
	}
	tag := SecTAG{AN: s.an, PN: s.nexPN, SCI: s.sci, Enc: s.mode == Confidential}
	s.nexPN++

	n := secTAGLen + 2 + len(f.Payload)
	wire := make([]byte, n, n+icvLen)
	tag.put(wire)
	inner := wire[secTAGLen:]
	binary.BigEndian.PutUint16(inner[0:2], f.EtherType)
	copy(inner[2:], f.Payload)

	if s.mode == Confidential {
		aad := s.buildAAD(f.Dst, f.Src, wire[:secTAGLen])
		wire = wire[:secTAGLen+len(s.gcm.Seal(inner[:0], tag.SCI, tag.PN, aad, inner))]
	} else {
		aad := s.buildAAD(f.Dst, f.Src, wire)
		wire = s.gcm.Seal(wire, tag.SCI, tag.PN, aad, nil)
	}

	out := &ethernet.Frame{
		Dst: f.Dst, Src: f.Src, VLAN: f.VLAN,
		EtherType: ethernet.EtherTypeMACsec,
		Payload:   wire,
	}
	return out, out.Validate()
}

// Verify unwraps a MACsec frame from a registered peer, enforcing
// replay protection, and returns the restored inner frame.
func (s *SecY) Verify(f *ethernet.Frame) (*ethernet.Frame, error) {
	if f.EtherType != ethernet.EtherTypeMACsec {
		return nil, fmt.Errorf("macsec: not a MACsec frame (ethertype %#x)", f.EtherType)
	}
	tag, err := parseSecTAG(f.Payload)
	if err != nil {
		return nil, err
	}
	ch, ok := s.peers[tag.SCI]
	if !ok {
		return nil, fmt.Errorf("macsec: unknown SCI %#x", tag.SCI)
	}
	if tag.AN != ch.an {
		return nil, fmt.Errorf("macsec: association number %d, expected %d", tag.AN, ch.an)
	}
	// Replay check before crypto, per 802.1AE.
	if !s.pnAcceptable(ch, tag.PN) {
		return nil, fmt.Errorf("macsec: replay: PN %d not above %d (window %d)", tag.PN, ch.highPN, s.ReplayWindow)
	}

	body := f.Payload[secTAGLen:]
	var inner []byte
	if tag.Enc {
		aad := s.buildAAD(f.Dst, f.Src, f.Payload[:secTAGLen])
		inner, err = ch.gcm.Open(s.inner[:0], tag.SCI, tag.PN, aad, body)
		if err != nil {
			return nil, err
		}
		s.inner = inner
	} else {
		if len(body) < icvLen {
			return nil, fmt.Errorf("macsec: short integrity frame")
		}
		inner = body[:len(body)-icvLen]
		aad := s.buildAAD(f.Dst, f.Src, f.Payload[:len(f.Payload)-icvLen])
		if _, err := ch.gcm.Open(nil, tag.SCI, tag.PN, aad, body[len(inner):]); err != nil {
			return nil, fmt.Errorf("macsec: ICV verification failed")
		}
	}
	if len(inner) < 2 {
		return nil, fmt.Errorf("macsec: inner frame too short")
	}
	if tag.PN > ch.highPN {
		ch.highPN = tag.PN
	}
	out := &ethernet.Frame{
		Dst: f.Dst, Src: f.Src, VLAN: f.VLAN,
		EtherType: binary.BigEndian.Uint16(inner[0:2]),
		Payload:   append([]byte(nil), inner[2:]...),
	}
	return out, nil
}

// pnAcceptable applies the 802.1AE replay check through the secchan
// kernel, which computes it in 64 bits — in uint32 arithmetic
// pn+window wraps for PNs within window of 2^32, rejecting exactly the
// fresh frames sent as the channel approaches PN exhaustion (the
// moment MKA rekeys under load).
func (s *SecY) pnAcceptable(ch *rxChannel, pn uint32) bool {
	return secchan.LenientAccept(uint64(ch.highPN), uint64(pn), uint64(s.ReplayWindow))
}

// buildAAD writes dst ‖ src ‖ covered (the SecTAG, and in
// integrity-only mode the inner frame after it) into the SecY's AAD
// scratch and returns it; valid until the next buildAAD.
func (s *SecY) buildAAD(dst, src ethernet.MAC, covered []byte) []byte {
	s.aad = append(append(append(s.aad[:0], dst[:]...), src[:]...), covered...)
	return s.aad
}
