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

// Session is one side of an established channel. Not safe for
// concurrent use.
type Session struct {
	role    Role
	send    *vcrypto.GCM // keyed with this side's sending direction key
	recv    *vcrypto.GCM // keyed with the peer's sending direction key
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

	// The keyed values are built once per direction and per side, and
	// the Finished exchange uses the same ones.
	var gcms [4]*vcrypto.GCM
	for i, key := range [][]byte{c2s, s2c, sC2s, sS2c} {
		g, err := vcrypto.NewGCM(key)
		if err != nil {
			return nil, nil, err
		}
		gcms[i] = g
	}
	client := &Session{role: Client, send: gcms[0], recv: gcms[1], replay: secchan.Window{Size: 64}}
	server := &Session{role: Server, send: gcms[3], recv: gcms[2], replay: secchan.Window{Size: 64}}

	// Finished verification: each side proves it derived the same keys.
	finished := []byte("finished:" + transcript)
	clientFin := client.send.Seal(nil, 0, 0, finished, nil)
	if _, err := server.recv.Open(nil, 0, 0, finished, clientFin); err != nil {
		return nil, nil, fmt.Errorf("tlslite: handshake failed: PSK mismatch")
	}
	return client, server, nil
}

// Seal protects a payload into a record, sealing it into the buffer
// that holds the header.
func (s *Session) Seal(payload []byte) ([]byte, error) {
	s.sendSeq++
	rec := make([]byte, 13, RecordOverhead+len(payload))
	rec[0] = 23 // application data
	binary.BigEndian.PutUint16(rec[1:3], 1)
	binary.BigEndian.PutUint64(rec[3:11], s.sendSeq)
	binary.BigEndian.PutUint16(rec[11:13], uint16(len(payload)))
	return s.send.Seal(rec, uint64(s.role), uint32(s.sendSeq), rec[:13], payload), nil
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
	pt, err := s.recv.Open(nil, uint64(peer), uint32(seq), hdr, record[13:])
	if err != nil {
		return nil, err
	}
	s.replay.Mark(seq)
	return pt, nil
}
