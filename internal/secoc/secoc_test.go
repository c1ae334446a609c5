package secoc

import (
	"bytes"
	"testing"
	"testing/quick"
)

var key = []byte("secoc-128bit-key")

func pair(t *testing.T, cfg Config) (*Sender, *Receiver) {
	t.Helper()
	s, err := NewSender(cfg, key)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(cfg, key)
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestProtectVerifyRoundTrip(t *testing.T) {
	t.Parallel()
	s, r := pair(t, DefaultConfig(0x10))
	payload := []byte{0x12, 0x34, 0x56}
	pdu, err := s.Protect(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdu) != len(payload)+DefaultConfig(0x10).Overhead() {
		t.Errorf("PDU length %d", len(pdu))
	}
	got, err := r.Verify(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %x", got)
	}
}

func TestVerifyRejectsReplay(t *testing.T) {
	t.Parallel()
	s, r := pair(t, DefaultConfig(0x10))
	pdu, err := s.Protect([]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(pdu); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(pdu); err == nil {
		t.Error("replayed PDU accepted")
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	t.Parallel()
	s, r := pair(t, DefaultConfig(0x10))
	pdu, err := s.Protect([]byte{0x01, 0x02})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), pdu...)
	bad[0] ^= 0xFF
	if _, err := r.Verify(bad); err == nil {
		t.Error("tampered payload accepted")
	}
}

func TestVerifyRejectsWrongDataID(t *testing.T) {
	t.Parallel()
	s, _ := pair(t, DefaultConfig(0x10))
	_, r2 := pair(t, DefaultConfig(0x11))
	pdu, err := s.Protect([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Verify(pdu); err == nil {
		t.Error("cross-stream PDU accepted (data ID not bound)")
	}
}

func TestVerifyToleratesLossWithinWindow(t *testing.T) {
	t.Parallel()
	s, r := pair(t, DefaultConfig(0x10))
	// Drop 10 PDUs, then deliver the 11th: within window 64.
	var pdu []byte
	var err error
	for i := 0; i < 11; i++ {
		pdu, err = s.Protect([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Verify(pdu); err != nil {
		t.Errorf("in-window PDU after loss rejected: %v", err)
	}
	// The receiver's counter now stands at 11: replaying FV 11 fails,
	// and FV 12 is the next one it accepts.
	if _, err := r.Verify(pdu); err == nil {
		t.Error("replayed FV 11 accepted")
	}
	next, err := s.Protect([]byte{11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(next); err != nil {
		t.Errorf("FV 12 after FV 11 rejected: %v", err)
	}
}

func TestVerifyRejectsBeyondWindow(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig(0x10)
	cfg.AcceptWindow = 4
	s, r := pair(t, cfg)
	var pdu []byte
	var err error
	for i := 0; i < 10; i++ { // 10 > window 4
		pdu, err = s.Protect([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Verify(pdu); err == nil {
		t.Error("PDU beyond freshness window accepted")
	}
}

func TestOutOfOrderOlderPDURejected(t *testing.T) {
	t.Parallel()
	s, r := pair(t, DefaultConfig(0x10))
	p1, _ := s.Protect([]byte{1})
	p2, _ := s.Protect([]byte{2})
	if _, err := r.Verify(p2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(p1); err == nil {
		t.Error("older PDU accepted after newer (replay direction)")
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{DataID: 1, MACBits: 0, FreshnessBits: 8},
		{DataID: 1, MACBits: 7, FreshnessBits: 8},
		{DataID: 1, MACBits: 136, FreshnessBits: 8},
		{DataID: 1, MACBits: 24, FreshnessBits: 0},
		{DataID: 1, MACBits: 24, FreshnessBits: 72},
	}
	for i, cfg := range bad {
		if _, err := NewSender(cfg, key); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewSender(DefaultConfig(1), []byte("short")); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewReceiver(DefaultConfig(1), []byte("short")); err == nil {
		t.Error("short key accepted by receiver")
	}
}

func TestVerifyShortPDU(t *testing.T) {
	t.Parallel()
	_, r := pair(t, DefaultConfig(1))
	if _, err := r.Verify([]byte{1, 2}); err == nil {
		t.Error("short PDU accepted")
	}
}

func TestOverheadMatchesConfig(t *testing.T) {
	t.Parallel()
	cfg := Config{DataID: 1, MACBits: 64, FreshnessBits: 16, AcceptWindow: 16}
	if cfg.Overhead() != 10 {
		t.Errorf("overhead = %d, want 10", cfg.Overhead())
	}
}

func TestPropertyProtectVerifyStream(t *testing.T) {
	t.Parallel()
	s, r := pair(t, DefaultConfig(0x42))
	f := func(payload []byte) bool {
		pdu, err := s.Protect(payload)
		if err != nil {
			return false
		}
		got, err := r.Verify(pdu)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForgeryWithoutKeyFails(t *testing.T) {
	t.Parallel()
	_, r := pair(t, DefaultConfig(0x10))
	attacker, err := NewSender(DefaultConfig(0x10), []byte("wrong-key-123456"))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := attacker.Protect([]byte{0xDE, 0xAD})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(forged); err == nil {
		t.Error("forged PDU under wrong key accepted")
	}
}
