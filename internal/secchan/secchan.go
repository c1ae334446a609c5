// Package secchan is the shared secure-channel kernel under the
// in-vehicle protocol stacks of Table I (secoc, macsec, cansec, ipsec,
// tlslite). The paper compares those protocols along the same axes —
// overhead, authenticity, confidentiality, replay protection — and
// their receive paths are instances of the same three mechanisms,
// which this package factors out:
//
//   - Window: a sliding-bitmap anti-replay window (RFC 4303 style),
//     used by the IPsec SA and the DTLS-style record layer.
//   - Counter: a strictly-increasing freshness counter with an
//     acceptance window, used by CANsec zone endpoints; LenientAccept
//     is the 802.1AE variant that tolerates bounded reordering without
//     duplicate tracking, used by MACsec receive channels.
//   - Freshness: truncated-counter reconstruction with an acceptance
//     window — the SECOC receiver's candidate search, generalised.
//
// VerifyTrunc is the constant-time truncated-MAC comparison every
// stack shares, and Suite/Entry give the experiment harness one
// generic view of a protected channel (Protect/Verify, with the
// Table I metadata on the registry entry), so protocol comparisons
// iterate a registry instead of naming protocols inline.
//
// Everything here operates on uint64 sequence numbers with explicit
// wrap semantics: protocols with narrower counters (MACsec's 32-bit
// PN, CANsec's 32-bit freshness) widen before calling in, which is
// exactly what makes the near-wrap arithmetic safe — the uint32
// overflow fixed in macsec's replay check is the class of bug this
// kernel exists to centralise.
//
// Exercised by experiments tab1, fig4-fig6, exp-vehicle, exp-zc,
// ablate-mac, ablate-fv, and ablate-scale through the protocol
// packages and the suites registry.
package secchan

import "crypto/subtle"

// VerifyTrunc compares a freshly computed MAC against a received
// (possibly truncated) MAC in constant time. It returns false when the
// lengths differ; the caller truncates want to the wire length before
// comparing, so a length mismatch is a malformed input, not a timing
// oracle.
func VerifyTrunc(want, got []byte) bool {
	return len(want) == len(got) && subtle.ConstantTimeCompare(want, got) == 1
}
