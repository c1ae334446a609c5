package ivn

import (
	"bytes"
	"fmt"

	"autosec/internal/ethernet"
	"autosec/internal/macsec"
	"autosec/internal/secoc"
)

// This file answers the question behind the paper's S1/S2 key-placement
// discussion with an executable result: *what can an attacker who owns
// the zone controller actually do* under each scenario's key layout?
// Two capabilities are probed with the real protocol implementations:
//
//   - read: can the ZC recover application plaintext from a message in
//     flight?
//   - forge: can the ZC fabricate an application message the central
//     computer accepts as authentic?

// CompromiseResult reports the probe outcomes for one scenario.
type CompromiseResult struct {
	Scenario         string
	KeysAtZC         int
	PlaintextVisible bool
	ForgeryAccepted  bool
}

func (r CompromiseResult) String() string {
	return fmt.Sprintf("%-8s keysZC=%d plaintext=%v forgery=%v",
		r.Scenario, r.KeysAtZC, r.PlaintextVisible, r.ForgeryAccepted)
}

// RunZCCompromise probes all scenarios with a compromised zone
// controller. The secret application payload is marker; detection is by
// substring (the payload travels verbatim inside the protocol stacks).
func RunZCCompromise() ([]CompromiseResult, error) {
	marker := []byte("SECRET-steering-setpoint-42")
	var out []CompromiseResult

	// --- S1: SECOC end-to-end, MACsec on the hop; ZC holds the hop SAK. ---
	s1, err := probeS1(marker)
	if err != nil {
		return nil, err
	}
	out = append(out, s1)

	// --- S2 point-to-point: ZC holds both hop SAKs. ---
	s2p, err := probeS2P2P(marker)
	if err != nil {
		return nil, err
	}
	out = append(out, s2p)

	// --- S2 end-to-end / S3: ZC holds nothing. ---
	for _, name := range []string{"S2-e2e", "S3"} {
		e2e, err := probeE2E(name, marker)
		if err != nil {
			return nil, err
		}
		out = append(out, e2e)
	}
	return out, nil
}

func probeS1(marker []byte) (CompromiseResult, error) {
	res := CompromiseResult{Scenario: "S1", KeysAtZC: 2}
	cfg := secoc.DefaultConfig(0x0100)
	ecu, err := secoc.NewSender(cfg, secocKey)
	if err != nil {
		return res, err
	}
	cc, err := secoc.NewReceiver(cfg, secocKey)
	if err != nil {
		return res, err
	}
	pdu, err := ecu.Protect(marker)
	if err != nil {
		return res, err
	}
	// The ZC legitimately holds the hop MACsec SAK; after unwrapping the
	// hop protection it sees the SECOC PDU. SECOC is authentication-
	// only, so the payload is right there.
	res.PlaintextVisible = bytes.Contains(pdu, marker)

	// Forgery: the ZC can wrap anything in valid hop MACsec, but the
	// inner SECOC MAC needs the e2e key the ZC does not have. Try the
	// best it can do: splice a forged payload into a captured PDU.
	forged := append([]byte(nil), pdu...)
	copy(forged, []byte("EVIL-steering-setpoint-99"))
	if _, err := cc.Verify(forged); err == nil {
		res.ForgeryAccepted = true
	}
	// Consume the original legitimately so the receiver state advances.
	if _, err := cc.Verify(pdu); err != nil {
		return res, fmt.Errorf("ivn: S1 probe: legitimate PDU rejected: %w", err)
	}
	return res, nil
}

func probeS2P2P(marker []byte) (CompromiseResult, error) {
	res := CompromiseResult{Scenario: "S2-p2p", KeysAtZC: 2}
	// The compromised ZC: it owns both hop channels by design.
	ep, zcDown, err := secYPair(epMAC, zcUpMAC, hopSAKzc)
	if err != nil {
		return res, err
	}
	zcUp, cc, err := secYPair(zcUpMAC, ccMAC, hopSAKcc)
	if err != nil {
		return res, err
	}

	sec, err := ep.Protect(&ethernet.Frame{Dst: ccMAC, Src: epMAC, EtherType: ethernet.EtherTypeApp, Payload: marker})
	if err != nil {
		return res, err
	}
	inner, err := zcDown.Verify(sec)
	if err == nil && bytes.Contains(inner.Payload, marker) {
		res.PlaintextVisible = true
	}
	// Forgery: the ZC protects its own fabrication with the uplink SAK.
	forged, err := zcUp.Protect(&ethernet.Frame{Dst: ccMAC, Src: zcUpMAC, EtherType: ethernet.EtherTypeApp, Payload: []byte("EVIL-brake-command")})
	if err != nil {
		return res, err
	}
	if _, err := cc.Verify(forged); err == nil {
		res.ForgeryAccepted = true
	}
	return res, nil
}

func probeE2E(name string, marker []byte) (CompromiseResult, error) {
	res := CompromiseResult{Scenario: name, KeysAtZC: 0}
	ep, cc, err := secYPair(epMAC, ccMAC, e2eSAK)
	if err != nil {
		return res, err
	}
	sec, err := ep.Protect(&ethernet.Frame{Dst: ccMAC, Src: epMAC, EtherType: ethernet.EtherTypeApp, Payload: marker})
	if err != nil {
		return res, err
	}
	// The ZC has no key: it sees only ciphertext.
	res.PlaintextVisible = bytes.Contains(sec.Payload, marker)
	// Forgery with a key the ZC could plausibly have (the wrong one).
	zcForge, err := macsec.NewSecY(macsec.Confidential, macsec.SCIFromMAC(zcUpMAC, 1), wrongSAK, 0)
	if err != nil {
		return res, err
	}
	forged, err := zcForge.Protect(&ethernet.Frame{Dst: ccMAC, Src: zcUpMAC, EtherType: ethernet.EtherTypeApp, Payload: []byte("EVIL")})
	if err != nil {
		return res, err
	}
	if _, err := cc.Verify(forged); err == nil {
		res.ForgeryAccepted = true
	}
	return res, nil
}
