// Package ipsec implements an ESP-style network-layer tunnel for
// Table I's IPsec row: security associations identified by SPI, 32-bit
// sequence numbers with a sliding anti-replay window, and AES-GCM
// protection of the encapsulated inner packet (tunnel mode). As with
// package tlslite, the goal is a faithful protocol *shape* — header
// overhead, SA state, replay semantics — for the IVN comparisons, not
// an RFC 4303 implementation.
//
// Exercised by experiment tab1.
package ipsec

import (
	"encoding/binary"
	"fmt"

	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// Overhead is the bytes ESP adds: SPI(4) + Seq(4) + ICV/tag(16).
const Overhead = 8 + 16

// SA is one direction of a security association. Not safe for
// concurrent use.
type SA struct {
	SPI     uint32
	gcm     *vcrypto.GCM
	sendSeq uint32

	replay secchan.Window
	// WindowSize is the anti-replay window (default 64, RFC minimum 32).
	WindowSize uint32
}

// NewSA creates a security association with the given 16- or 32-byte
// key.
func NewSA(spi uint32, key []byte) (*SA, error) {
	if len(key) != 16 && len(key) != 32 {
		return nil, fmt.Errorf("ipsec: key must be 16 or 32 bytes, got %d", len(key))
	}
	gcm, err := vcrypto.NewGCM(key)
	if err != nil {
		return nil, err
	}
	return &SA{SPI: spi, gcm: gcm, WindowSize: 64}, nil
}

// Encapsulate protects an inner packet into an ESP packet, sealing it
// into the buffer that holds the header.
func (sa *SA) Encapsulate(inner []byte) ([]byte, error) {
	if sa.sendSeq == ^uint32(0) {
		return nil, fmt.Errorf("ipsec: sequence space exhausted; rekey the SA")
	}
	sa.sendSeq++
	pkt := make([]byte, 8, Overhead+len(inner))
	binary.BigEndian.PutUint32(pkt[0:4], sa.SPI)
	binary.BigEndian.PutUint32(pkt[4:8], sa.sendSeq)
	return sa.gcm.Seal(pkt, uint64(sa.SPI), sa.sendSeq, pkt[:8], inner), nil
}

// Decapsulate verifies an ESP packet and returns the inner packet.
func (sa *SA) Decapsulate(pkt []byte) ([]byte, error) {
	if len(pkt) < Overhead {
		return nil, fmt.Errorf("ipsec: packet shorter than ESP overhead")
	}
	spi := binary.BigEndian.Uint32(pkt[0:4])
	seq := binary.BigEndian.Uint32(pkt[4:8])
	if spi != sa.SPI {
		return nil, fmt.Errorf("ipsec: SPI %#x does not match SA %#x", spi, sa.SPI)
	}
	// WindowSize is public and may be tuned after NewSA; sync it into
	// the kernel window before every check.
	sa.replay.Size = sa.WindowSize
	if !sa.replay.Check(uint64(seq)) {
		return nil, fmt.Errorf("ipsec: anti-replay rejected seq %d", seq)
	}
	inner, err := sa.gcm.Open(nil, uint64(sa.SPI), seq, pkt[:8], pkt[8:])
	if err != nil {
		return nil, err
	}
	sa.replay.Mark(uint64(seq))
	return inner, nil
}
