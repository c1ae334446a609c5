package macsec

import (
	"bytes"
	"testing"
	"testing/quick"

	"autosec/internal/ethernet"
	"autosec/internal/vcrypto"
)

var sak = vcrypto.DeriveKey([]byte("test-cak-material"), "sak", "t", 16)

func macA() ethernet.MAC { return ethernet.MAC{2, 0, 0, 0, 0, 0xA} }
func macB() ethernet.MAC { return ethernet.MAC{2, 0, 0, 0, 0, 0xB} }

func securedPair(t *testing.T, mode Mode) (*SecY, *SecY) {
	t.Helper()
	sciA := SCIFromMAC(macA(), 1)
	sciB := SCIFromMAC(macB(), 1)
	a, err := NewSecY(mode, sciA, sak, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecY(mode, sciB, sak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(sciB, sak, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(sciA, sak, 0); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func appFrame(payload string) *ethernet.Frame {
	return &ethernet.Frame{
		Dst: macB(), Src: macA(),
		EtherType: ethernet.EtherTypeApp,
		Payload:   []byte(payload),
	}
}

func TestProtectVerifyConfidential(t *testing.T) {
	a, b := securedPair(t, Confidential)
	sec, err := a.Protect(appFrame("steering torque"))
	if err != nil {
		t.Fatal(err)
	}
	if sec.EtherType != ethernet.EtherTypeMACsec {
		t.Errorf("ethertype %#x", sec.EtherType)
	}
	if bytes.Contains(sec.Payload, []byte("steering")) {
		t.Error("plaintext visible in confidential mode")
	}
	got, err := b.Verify(sec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "steering torque" || got.EtherType != ethernet.EtherTypeApp {
		t.Errorf("restored %+v", got)
	}
}

func TestProtectVerifyIntegrityOnly(t *testing.T) {
	a, b := securedPair(t, IntegrityOnly)
	sec, err := a.Protect(appFrame("visible but authenticated"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sec.Payload, []byte("visible but authenticated")) {
		t.Error("integrity-only mode should not encrypt")
	}
	got, err := b.Verify(sec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "visible but authenticated" {
		t.Errorf("restored %q", got.Payload)
	}
}

func TestVerifyRejectsTamperBothModes(t *testing.T) {
	for _, mode := range []Mode{Confidential, IntegrityOnly} {
		a, b := securedPair(t, mode)
		sec, err := a.Protect(appFrame("brake command"))
		if err != nil {
			t.Fatal(err)
		}
		sec.Payload[secTAGLen+1] ^= 0x01
		if _, err := b.Verify(sec); err == nil {
			t.Errorf("%v: tampered frame accepted", mode)
		}
	}
}

func TestVerifyRejectsReplay(t *testing.T) {
	a, b := securedPair(t, Confidential)
	sec, err := a.Protect(appFrame("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Verify(sec); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Verify(sec); err == nil {
		t.Error("replayed frame accepted")
	}
}

func TestReplayWindowAllowsBoundedReorder(t *testing.T) {
	a, b := securedPair(t, Confidential)
	b.ReplayWindow = 4
	f1, _ := a.Protect(appFrame("1"))
	f2, _ := a.Protect(appFrame("2"))
	f3, _ := a.Protect(appFrame("3"))
	if _, err := b.Verify(f3); err != nil {
		t.Fatal(err)
	}
	// PN 1 and 2 are within window 4 of highPN 3.
	if _, err := b.Verify(f1); err != nil {
		t.Errorf("in-window reorder rejected: %v", err)
	}
	if _, err := b.Verify(f2); err != nil {
		t.Errorf("in-window reorder rejected: %v", err)
	}
}

func TestVerifyRejectsUnknownSCI(t *testing.T) {
	a, _ := securedPair(t, Confidential)
	stranger, err := NewSecY(Confidential, SCIFromMAC(ethernet.MAC{9, 9, 9, 9, 9, 9}, 1), sak, 0)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := stranger.Protect(appFrame("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Verify(sec); err == nil {
		t.Error("frame from unregistered channel accepted")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	sciA := SCIFromMAC(macA(), 1)
	attacker, err := NewSecY(Confidential, sciA, vcrypto.DeriveKey([]byte("other"), "sak", "x", 16), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecY(Confidential, SCIFromMAC(macB(), 1), sak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(sciA, sak, 0); err != nil {
		t.Fatal(err)
	}
	forged, err := attacker.Protect(appFrame("spoof"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Verify(forged); err == nil {
		t.Error("frame under wrong SAK accepted")
	}
}

// TestRekeyAdvancesANAndResetsPN rekeys a channel the way MKA does: the
// sender restarts under a new SAK and the next association number with
// its PN back at 1, and the receiver re-adds the peer with that key and
// AN. Frames under the old AN then fail, and PN 1 verifies again.
func TestRekeyAdvancesANAndResetsPN(t *testing.T) {
	a, b := securedPair(t, Confidential)
	for _, payload := range []string{"pre-1", "pre-2"} {
		f, _ := a.Protect(appFrame(payload))
		if _, err := b.Verify(f); err != nil {
			t.Fatal(err)
		}
	}
	stale, _ := a.Protect(appFrame("stale"))
	newSAK := vcrypto.DeriveKey([]byte("test-cak-material"), "sak", "t2", 16)
	sciA := SCIFromMAC(macA(), 1)
	a, err := NewSecY(Confidential, sciA, newSAK, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(sciA, newSAK, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Verify(stale); err == nil {
		t.Error("frame under the old AN accepted after rekey")
	}
	f2, err := a.Protect(appFrame("post"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Verify(f2)
	if err != nil {
		t.Fatalf("PN 1 under the new SAK rejected: %v", err)
	}
	if string(got.Payload) != "post" {
		t.Errorf("post-rekey payload %q", got.Payload)
	}
}

func TestOverheadConstant(t *testing.T) {
	a, _ := securedPair(t, Confidential)
	f := appFrame("12345678")
	sec, err := a.Protect(f)
	if err != nil {
		t.Fatal(err)
	}
	// inner = ethertype(2)+payload; MACsec payload = SecTAG + sealed.
	gotOverhead := len(sec.Payload) - len(f.Payload)
	if want := secTAGLen + icvLen + 2; gotOverhead != want {
		t.Errorf("overhead = %d, want %d", gotOverhead, want)
	}
}

func TestPropertyRoundTripAnyPayload(t *testing.T) {
	a, b := securedPair(t, Confidential)
	f := func(payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		fr := &ethernet.Frame{Dst: macB(), Src: macA(), EtherType: ethernet.EtherTypeApp, Payload: payload}
		sec, err := a.Protect(fr)
		if err != nil {
			return false
		}
		got, err := b.Verify(sec)
		return err == nil && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewSecYValidation(t *testing.T) {
	if _, err := NewSecY(Confidential, 1, []byte("short"), 0); err == nil {
		t.Error("short SAK accepted")
	}
	s, _ := NewSecY(Confidential, 1, sak, 0)
	if err := s.AddPeer(2, []byte("short"), 0); err == nil {
		t.Error("short peer SAK accepted")
	}
}

func TestVerifyNonMACsecFrame(t *testing.T) {
	a, _ := securedPair(t, Confidential)
	if _, err := a.Verify(appFrame("plain")); err == nil {
		t.Error("plain frame accepted by Verify")
	}
}

// --- MKA ---

func TestMKADistributeAndAccept(t *testing.T) {
	cak := []byte("pre-shared-cak-16bytes!")
	server, err := NewParticipant("cc", "ca-1", cak, 1)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewParticipant("zc-left", "ca-1", cak, 10)
	if err != nil {
		t.Fatal(err)
	}
	pdu, err := server.DistributeSAK(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.AcceptSAK(pdu); err != nil {
		t.Fatal(err)
	}
	if !SharesSAK(server, peer) {
		t.Error("participants do not share the SAK")
	}
	if peer.SAKID() != 1 {
		t.Errorf("SAKID = %d", peer.SAKID())
	}
}

func TestMKARejectsWrongCAK(t *testing.T) {
	server, _ := NewParticipant("cc", "ca-1", []byte("pre-shared-cak-16bytes!"), 1)
	rogue, _ := NewParticipant("rogue", "ca-1", []byte("a-different-cak-yes-sir"), 5)
	pdu, err := server.DistributeSAK(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rogue.AcceptSAK(pdu); err == nil {
		t.Error("participant with wrong CAK obtained the SAK")
	}
	if SharesSAK(server, rogue) {
		t.Error("rogue shares SAK")
	}
}

func TestMKARejectsWrongCKNAndTamper(t *testing.T) {
	cak := []byte("pre-shared-cak-16bytes!")
	server, _ := NewParticipant("cc", "ca-1", cak, 1)
	other, _ := NewParticipant("p", "ca-2", cak, 2)
	pdu, err := server.DistributeSAK(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AcceptSAK(pdu); err == nil {
		t.Error("cross-CKN MKPDU accepted")
	}
	peer, _ := NewParticipant("p2", "ca-1", cak, 2)
	pdu.WrappedSAK[0] ^= 1
	if err := peer.AcceptSAK(pdu); err == nil {
		t.Error("tampered MKPDU accepted")
	}
}

func TestMKAElection(t *testing.T) {
	a, _ := NewParticipant("a", "ca", []byte("pre-shared-cak-16bytes!"), 5)
	b, _ := NewParticipant("b", "ca", []byte("pre-shared-cak-16bytes!"), 2)
	c, _ := NewParticipant("c", "ca", []byte("pre-shared-cak-16bytes!"), 2)
	srv, err := ElectKeyServer([]*Participant{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Name != "b" {
		t.Errorf("elected %s, want b (lowest priority, name tiebreak)", srv.Name)
	}
	if _, err := ElectKeyServer(nil); err == nil {
		t.Error("empty election succeeded")
	}
}

func TestMKAValidation(t *testing.T) {
	if _, err := NewParticipant("x", "ca", []byte("short"), 1); err == nil {
		t.Error("short CAK accepted")
	}
}
