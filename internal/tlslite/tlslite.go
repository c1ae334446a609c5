// Package tlslite implements a minimal (D)TLS-style secure channel for
// Table I's transport-layer row: a pre-shared-key handshake with mutual
// key confirmation, per-direction AES-GCM record protection with
// explicit sequence numbers (the DTLS variant, so records survive loss
// and reordering on datagram transports), and replay detection.
//
// It is intentionally not an implementation of RFC 5246/9147 — the IVN
// experiments need the *shape* of a transport-layer channel (handshake
// round trips, per-record overhead, replay window semantics) to compare
// against SECOC, MACsec, IPsec, and CANsec on the same links.
//
// Exercised by experiment tab1.
package tlslite

import (
	"encoding/binary"
	"fmt"

	"autosec/internal/secchan"
	"autosec/internal/sim"
	"autosec/internal/vcrypto"
)

// RecordOverhead is the bytes added to each protected record: a 13-byte
// header (type, epoch, 8-byte sequence, length) plus the 16-byte tag.
const RecordOverhead = 13 + 16

// HandshakeMessages is the number of flights the PSK handshake needs.
const HandshakeMessages = 3 // ClientHello, ServerHello+Finished, Finished

// Role distinguishes the two sides' key directions.
type Role int

const (
	Client Role = iota
	Server
)

// Session is one side of an established channel.
type Session struct {
	role    Role
	sendKey []byte
	recvKey []byte
	sendSeq uint64
	replay  secchan.Window // DTLS sliding window over the 64 records below the highest seq
}

// Handshake derives a connected client/server session pair from a
// pre-shared key and the two parties' nonces, mutually confirming key
// possession. It fails if the sides hold different PSKs.
func Handshake(clientPSK, serverPSK []byte, rng *sim.RNG) (*Session, *Session, error) {
	if len(clientPSK) < 16 || len(serverPSK) < 16 {
		return nil, nil, fmt.Errorf("tlslite: PSK must be at least 16 bytes")
	}
	clientNonce := make([]byte, 16)
	serverNonce := make([]byte, 16)
	rng.Bytes(clientNonce)
	rng.Bytes(serverNonce)
	transcript := string(clientNonce) + "|" + string(serverNonce)

	c2s := vcrypto.DeriveKey(clientPSK, "tls-c2s", transcript, 16)
	s2c := vcrypto.DeriveKey(clientPSK, "tls-s2c", transcript, 16)
	sC2s := vcrypto.DeriveKey(serverPSK, "tls-c2s", transcript, 16)
	sS2c := vcrypto.DeriveKey(serverPSK, "tls-s2c", transcript, 16)

	// Finished verification: each side proves it derived the same keys.
	clientFin, err := vcrypto.GCMTag(c2s, 0, 0, []byte("finished:"+transcript))
	if err != nil {
		return nil, nil, err
	}
	if !vcrypto.GCMVerifyTag(sC2s, 0, 0, []byte("finished:"+transcript), clientFin) {
		return nil, nil, fmt.Errorf("tlslite: handshake failed: PSK mismatch")
	}

	client := &Session{role: Client, sendKey: c2s, recvKey: s2c, replay: secchan.Window{Size: 64}}
	server := &Session{role: Server, sendKey: sS2c, recvKey: sC2s, replay: secchan.Window{Size: 64}}
	return client, server, nil
}

// Seal protects a payload into a record.
func (s *Session) Seal(payload []byte) ([]byte, error) {
	s.sendSeq++
	hdr := make([]byte, 13)
	hdr[0] = 23 // application data
	binary.BigEndian.PutUint16(hdr[1:3], 1)
	binary.BigEndian.PutUint64(hdr[3:11], s.sendSeq)
	binary.BigEndian.PutUint16(hdr[11:13], uint16(len(payload)))
	ct, err := vcrypto.GCMSeal(s.sendKey, uint64(s.role), uint32(s.sendSeq), hdr, payload)
	if err != nil {
		return nil, err
	}
	return append(hdr, ct...), nil
}

// Open verifies a record, enforcing the DTLS sliding replay window, and
// returns the payload.
func (s *Session) Open(record []byte) ([]byte, error) {
	if len(record) < RecordOverhead {
		return nil, fmt.Errorf("tlslite: record too short")
	}
	hdr := record[:13]
	seq := binary.BigEndian.Uint64(hdr[3:11])
	if !s.replay.Check(seq) {
		return nil, fmt.Errorf("tlslite: replayed or too-old record seq %d", seq)
	}
	peer := Client
	if s.role == Client {
		peer = Server
	}
	pt, err := vcrypto.GCMOpen(s.recvKey, uint64(peer), uint32(seq), hdr, record[13:])
	if err != nil {
		return nil, err
	}
	s.replay.Mark(seq)
	return pt, nil
}
