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

// Overhead is the total bytes MACsec adds to a frame's payload (SecTAG
// plus ICV). The EtherType change is not counted (same width).
const Overhead = secTAGLen + icvLen

func (t *SecTAG) marshal() []byte {
	buf := make([]byte, secTAGLen)
	flags := t.AN & 0x03
	if t.Enc {
		flags |= 0x08
	}
	buf[0] = flags
	binary.BigEndian.PutUint32(buf[2:6], t.PN)
	binary.BigEndian.PutUint64(buf[6:14], t.SCI)
	return buf
}

func parseSecTAG(b []byte) (*SecTAG, error) {
	if len(b) < secTAGLen {
		return nil, fmt.Errorf("macsec: short SecTAG")
	}
	return &SecTAG{
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
// channels.
type SecY struct {
	mode  Mode
	sci   uint64
	an    uint8
	sak   []byte
	nexPN uint32
	// rx state per peer SCI
	peers map[uint64]*rxChannel
	// ReplayWindow 0 means strict in-order; >0 tolerates reordering.
	ReplayWindow uint32
}

type rxChannel struct {
	sak    []byte
	an     uint8
	highPN uint32
}

// NewSecY creates a MACsec entity for a transmit channel identified by
// sci, initially keyed with sak under association number an.
func NewSecY(mode Mode, sci uint64, sak []byte, an uint8) (*SecY, error) {
	if len(sak) != 16 && len(sak) != 32 {
		return nil, fmt.Errorf("macsec: SAK must be 16 or 32 bytes, got %d", len(sak))
	}
	return &SecY{
		mode: mode, sci: sci, an: an & 3,
		sak:   append([]byte(nil), sak...),
		nexPN: 1,
		peers: make(map[uint64]*rxChannel),
	}, nil
}

// AddPeer registers a receive channel keyed with the peer's SAK.
func (s *SecY) AddPeer(sci uint64, sak []byte, an uint8) error {
	if len(sak) != 16 && len(sak) != 32 {
		return fmt.Errorf("macsec: peer SAK length %d", len(sak))
	}
	s.peers[sci] = &rxChannel{sak: append([]byte(nil), sak...), an: an & 3}
	return nil
}

// RekeyTx installs a new transmit SAK under the next association number
// and resets the packet number — the operation MKA performs as PN
// exhaustion approaches.
func (s *SecY) RekeyTx(sak []byte) error {
	if len(sak) != 16 && len(sak) != 32 {
		return fmt.Errorf("macsec: SAK length %d", len(sak))
	}
	s.sak = append([]byte(nil), sak...)
	s.an = (s.an + 1) & 3
	s.nexPN = 1
	return nil
}

// NextPN exposes the transmit packet number (for rekey policy tests).
func (s *SecY) NextPN() uint32 { return s.nexPN }

// NeedRekey reports whether the transmit packet number has crossed the
// given fraction of its space — the trigger MKA uses to distribute a
// fresh SAK before PN exhaustion would halt transmission.
func (s *SecY) NeedRekey(fraction float64) bool {
	if fraction <= 0 {
		fraction = 0.75
	}
	return float64(s.nexPN) >= fraction*float64(^uint32(0))
}

// Protect wraps an Ethernet frame in MACsec: the original EtherType and
// payload become the secure data; the SecTAG is authenticated as
// associated data together with the MAC addresses.
func (s *SecY) Protect(f *ethernet.Frame) (*ethernet.Frame, error) {
	if s.nexPN == 0 {
		return nil, fmt.Errorf("macsec: transmit PN exhausted; rekey required")
	}
	tag := &SecTAG{AN: s.an, PN: s.nexPN, SCI: s.sci, Enc: s.mode == Confidential}
	s.nexPN++

	inner := make([]byte, 2+len(f.Payload))
	binary.BigEndian.PutUint16(inner[0:2], f.EtherType)
	copy(inner[2:], f.Payload)

	aad := buildAAD(f.Dst, f.Src, tag)
	var body []byte
	var err error
	if s.mode == Confidential {
		body, err = vcrypto.GCMSeal(s.sak, tag.SCI, tag.PN, aad, inner)
	} else {
		var icv []byte
		icv, err = vcrypto.GCMTag(s.sak, tag.SCI, tag.PN, append(aad, inner...))
		body = append(append([]byte(nil), inner...), icv...)
	}
	if err != nil {
		return nil, err
	}

	out := &ethernet.Frame{
		Dst: f.Dst, Src: f.Src, VLAN: f.VLAN,
		EtherType: ethernet.EtherTypeMACsec,
		Payload:   append(tag.marshal(), body...),
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
	aad := buildAAD(f.Dst, f.Src, tag)
	var inner []byte
	if tag.Enc {
		inner, err = vcrypto.GCMOpen(ch.sak, tag.SCI, tag.PN, aad, body)
		if err != nil {
			return nil, err
		}
	} else {
		if len(body) < icvLen {
			return nil, fmt.Errorf("macsec: short integrity frame")
		}
		inner = body[:len(body)-icvLen]
		icv := body[len(body)-icvLen:]
		if !vcrypto.GCMVerifyTag(ch.sak, tag.SCI, tag.PN, append(aad, inner...), icv) {
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

func buildAAD(dst, src ethernet.MAC, tag *SecTAG) []byte {
	aad := make([]byte, 0, 12+secTAGLen)
	aad = append(aad, dst[:]...)
	aad = append(aad, src[:]...)
	aad = append(aad, tag.marshal()...)
	return aad
}
