// Package secoc implements AUTOSAR Secure Onboard Communication
// (paper ref [18]): authentication of PDUs on CAN or Ethernet with a
// truncated AES-CMAC and a freshness value to stop replay. The secured
// PDU layout follows the specification: payload ‖ truncated freshness ‖
// truncated MAC, where the MAC covers data-ID ‖ payload ‖ full
// freshness. SECOC provides *authenticity only* — no confidentiality —
// which is one of the S1 disadvantages the paper lists.
//
// Exercised by experiments tab1, fig4, exp-vehicle, ablate-mac, and
// ablate-fv.
package secoc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// Config fixes the profile of a SECOC channel.
type Config struct {
	// DataID distinguishes message streams; it is bound into the MAC.
	DataID uint16
	// MACBits is the truncated MAC length (24–64 typical; profile 1
	// uses 24 bits on classic CAN, larger on FD/Ethernet).
	MACBits int
	// FreshnessBits is how many low-order freshness bits travel in the
	// PDU (profile 1 uses 8).
	FreshnessBits int
	// AcceptWindow is how far ahead of the receiver's counter a
	// reconstructed freshness value may be (tolerates lost PDUs).
	AcceptWindow uint64
}

// DefaultConfig is SECOC profile-1-like: 24-bit MAC, 8 freshness bits,
// window 64 — sized to fit alongside data in small CAN payloads.
func DefaultConfig(dataID uint16) Config {
	return Config{DataID: dataID, MACBits: 24, FreshnessBits: 8, AcceptWindow: 64}
}

func (c Config) validate() error {
	if c.MACBits <= 0 || c.MACBits > 128 || c.MACBits%8 != 0 {
		return fmt.Errorf("secoc: MAC bits %d", c.MACBits)
	}
	if c.FreshnessBits <= 0 || c.FreshnessBits > 64 || c.FreshnessBits%8 != 0 {
		return fmt.Errorf("secoc: freshness bits %d", c.FreshnessBits)
	}
	return nil
}

// Overhead returns the bytes SECOC adds to each payload.
func (c Config) Overhead() int { return c.FreshnessBits/8 + c.MACBits/8 }

// Sender protects outgoing PDUs. Not safe for concurrent use (each
// stream belongs to one simulated ECU task).
type Sender struct {
	cfg Config
	fv  uint64 // full monotonic freshness counter
	mac macScratch
}

// NewSender creates a protecting endpoint.
func NewSender(cfg Config, key []byte) (*Sender, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mac, err := newMACScratch(key)
	if err != nil {
		return nil, err
	}
	return &Sender{cfg: cfg, mac: mac}, nil
}

// Protect builds the secured PDU for payload, consuming one freshness
// value.
func (s *Sender) Protect(payload []byte) ([]byte, error) {
	s.fv++
	mac := s.mac.compute(s.cfg, payload, s.fv)
	fvBytes := s.cfg.FreshnessBits / 8
	out := make([]byte, 0, len(payload)+s.cfg.Overhead())
	out = append(out, payload...)
	var fvBuf [8]byte
	binary.BigEndian.PutUint64(fvBuf[:], s.fv)
	out = append(out, fvBuf[8-fvBytes:]...)
	out = append(out, mac...)
	return out, nil
}

// Receiver verifies secured PDUs.
type Receiver struct {
	cfg   Config
	fresh secchan.Freshness
	mac   macScratch
}

// NewReceiver creates a verifying endpoint.
func NewReceiver(cfg Config, key []byte) (*Receiver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mac, err := newMACScratch(key)
	if err != nil {
		return nil, err
	}
	return &Receiver{
		cfg:   cfg,
		fresh: secchan.Freshness{Bits: cfg.FreshnessBits, Window: cfg.AcceptWindow},
		mac:   mac,
	}, nil
}

// Verify checks a secured PDU and returns the authenticated payload:
// a view of pdu capped at the payload's end, so appending to it cannot
// overwrite the freshness and MAC bytes. The receiver reconstructs the
// full freshness value from the truncated bits via the secchan kernel's
// candidate search — forward from its own counter within the acceptance
// window; replayed or stale PDUs fail because no in-window counter
// matches both the truncated bits and the MAC.
func (r *Receiver) Verify(pdu []byte) ([]byte, error) {
	oh := r.cfg.Overhead()
	if len(pdu) < oh {
		return nil, fmt.Errorf("secoc: PDU shorter than overhead (%d < %d)", len(pdu), oh)
	}
	fvBytes := r.cfg.FreshnessBits / 8
	payload := pdu[:len(pdu)-oh]
	fvTrunc := pdu[len(pdu)-oh : len(pdu)-oh+fvBytes]
	mac := pdu[len(pdu)-r.cfg.MACBits/8:]

	var truncVal uint64
	for _, b := range fvTrunc {
		truncVal = truncVal<<8 | uint64(b)
	}

	// The iterator form keeps the reject path allocation-free: the
	// ablation sweeps feed this receiver thousands of forgeries, and a
	// Reconstruct closure would escape to the heap on every PDU.
	it := r.fresh.Candidates(truncVal)
	for it.Next() {
		if secchan.VerifyTrunc(r.mac.compute(r.cfg, payload, it.Value()), mac) {
			it.Commit()
			return payload[:len(payload):len(payload)], nil
		}
	}
	return nil, errVerifyFailed
}

// errVerifyFailed is a sentinel: Verify rejects thousands of forged or
// replayed PDUs per ablation sweep, and formatting a fresh error for
// each dominated the package's allocations.
var errVerifyFailed = errors.New("secoc: verification failed (replay, forgery, or window exceeded)")

// macScratch is one endpoint's keyed CMAC plus the reusable message
// and tag buffer, so the per-PDU MAC computation allocates nothing.
// Endpoints are documented as single-task objects, so neither needs a
// lock.
type macScratch struct {
	cmac *vcrypto.CMAC
	buf  []byte
}

func newMACScratch(key []byte) (macScratch, error) {
	if len(key) != 16 {
		return macScratch{}, fmt.Errorf("secoc: key must be 16 bytes")
	}
	cmac, err := vcrypto.NewCMAC(key)
	return macScratch{cmac: cmac}, err
}

// compute returns the truncated CMAC over data-ID || payload || full
// freshness. The result aliases the endpoint's scratch buffer and is
// only valid until the next compute call; both call sites either copy
// it (Protect appends) or finish with it immediately (Verify compares).
func (m *macScratch) compute(cfg Config, payload []byte, fv uint64) []byte {
	n := 2 + len(payload) + 8
	macBytes := cfg.MACBits / 8
	if cap(m.buf) < n+macBytes {
		m.buf = make([]byte, n+macBytes)
	}
	msg := m.buf[:n]
	binary.BigEndian.PutUint16(msg[0:2], cfg.DataID)
	copy(msg[2:], payload)
	binary.BigEndian.PutUint64(msg[2+len(payload):], fv)
	tag := m.cmac.Sum(msg)
	mac := m.buf[n : n+macBytes]
	copy(mac, tag[:])
	return mac
}
