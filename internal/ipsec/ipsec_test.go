package ipsec

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

var key = []byte("ipsec-sa-key-16b")

func saPair(t *testing.T) (*SA, *SA) {
	t.Helper()
	tx, err := NewSA(0x1001, key)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewSA(0x1001, key)
	if err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

func TestEncapDecapRoundTrip(t *testing.T) {
	tx, rx := saPair(t)
	pkt, err := tx.Encapsulate([]byte("inner ip packet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != len("inner ip packet")+Overhead {
		t.Errorf("packet length %d", len(pkt))
	}
	got, err := rx.Decapsulate(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "inner ip packet" {
		t.Errorf("inner %q", got)
	}
}

func TestDecapRejectsReplay(t *testing.T) {
	tx, rx := saPair(t)
	pkt, err := tx.Encapsulate([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Decapsulate(pkt); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Decapsulate(pkt); err == nil {
		t.Error("replay accepted")
	}
}

func TestDecapWindowReorder(t *testing.T) {
	tx, rx := saPair(t)
	var pkts [][]byte
	for i := 0; i < 10; i++ {
		p, err := tx.Encapsulate([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	if _, err := rx.Decapsulate(pkts[9]); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{5, 2, 8, 0} {
		if _, err := rx.Decapsulate(pkts[i]); err != nil {
			t.Errorf("in-window packet %d rejected: %v", i, err)
		}
	}
	for _, i := range []int{9, 5, 2, 8, 0} {
		if _, err := rx.Decapsulate(pkts[i]); err == nil {
			t.Errorf("replayed packet %d accepted", i)
		}
	}
	// A corrupted copy of an unseen in-window packet fails
	// authentication without marking its sequence number, so the
	// genuine packet is still accepted afterwards.
	bad := append([]byte(nil), pkts[7]...)
	bad[len(bad)-1] ^= 1
	if _, err := rx.Decapsulate(bad); err == nil {
		t.Error("corrupted packet accepted")
	}
	if _, err := rx.Decapsulate(pkts[7]); err != nil {
		t.Errorf("genuine packet rejected after a corrupted copy: %v", err)
	}
}

// TestEncapsulateStopsAtExhaustion drives an SA across the
// sequence-space cliff: the packets before it are protected, the next
// Encapsulate fails with the rekey error, and a failed call leaves the
// sequence number where it was.
func TestEncapsulateStopsAtExhaustion(t *testing.T) {
	tx, rx := saPair(t)
	tx.sendSeq = ^uint32(0) - 2
	for i := 0; i < 2; i++ {
		pkt, err := tx.Encapsulate([]byte{byte(i)})
		if err != nil {
			t.Fatalf("packet %d before the cliff: %v", i, err)
		}
		if _, err := rx.Decapsulate(pkt); err != nil {
			t.Fatalf("packet %d before the cliff rejected: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := tx.Encapsulate([]byte{9}); err == nil || !strings.Contains(err.Error(), "sequence space exhausted") {
			t.Fatalf("call %d past the cliff: err = %v, want exhaustion", i, err)
		}
		if tx.sendSeq != ^uint32(0) {
			t.Fatalf("call %d past the cliff moved sendSeq to %d", i, tx.sendSeq)
		}
	}
}

func TestDecapRejectsBeyondWindow(t *testing.T) {
	tx, rx := saPair(t)
	rx.WindowSize = 8
	first, err := tx.Encapsulate([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	for i := 0; i < 20; i++ {
		last, err = tx.Encapsulate([]byte("later"))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rx.Decapsulate(last); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Decapsulate(first); err == nil {
		t.Error("packet far below window accepted")
	}
}

func TestDecapRejectsWrongSPIAndTamper(t *testing.T) {
	tx, _ := saPair(t)
	other, err := NewSA(0x2002, key)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := tx.Encapsulate([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Decapsulate(pkt); err == nil {
		t.Error("wrong SPI accepted")
	}
	_, rx := saPair(t)
	bad := append([]byte(nil), pkt...)
	bad[10] ^= 1
	if _, err := rx.Decapsulate(bad); err == nil {
		t.Error("tampered packet accepted")
	}
	if _, err := rx.Decapsulate([]byte{1, 2}); err == nil {
		t.Error("short packet accepted")
	}
}

func TestNewSAValidation(t *testing.T) {
	if _, err := NewSA(1, []byte("short")); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewSA(1, make([]byte, 32)); err != nil {
		t.Errorf("32-byte key rejected: %v", err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	tx, rx := saPair(t)
	f := func(inner []byte) bool {
		pkt, err := tx.Encapsulate(inner)
		if err != nil {
			return false
		}
		got, err := rx.Decapsulate(pkt)
		return err == nil && bytes.Equal(got, inner)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
