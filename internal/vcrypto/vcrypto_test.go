package vcrypto

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"autosec/internal/secchan"
)

// RFC 4493 test vectors (AES-128 key 2b7e1516...).
var rfc4493Key, _ = hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustCMAC(t *testing.T, key []byte) *CMAC {
	t.Helper()
	c, err := NewCMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustGCM(t *testing.T, key []byte) *GCM {
	t.Helper()
	g, err := NewGCM(key)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCMACRFC4493Vectors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		msg  string
		want string
	}{
		{"empty", "", "bb1d6929e95937287fa37d129b756746"},
		{"16B", "6bc1bee22e409f96e93d7e117393172a", "070a16b46b4d4144f79bdd9dd04a287c"},
		{"40B", "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411", "dfa66747de9ae63030ca32611497c827"},
		{"64B", "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710", "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	// One keyed CMAC serves every vector in turn, so the working pair
	// it reuses must not leak state from one message into the next.
	c := mustCMAC(t, rfc4493Key)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tag := c.Sum(mustHex(t, tc.msg))
			if got := hex.EncodeToString(tag[:]); got != tc.want {
				t.Errorf("CMAC = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestCMACRejectsBadKey(t *testing.T) {
	t.Parallel()
	if _, err := NewCMAC([]byte("short")); err == nil {
		t.Error("bad key accepted")
	}
	if _, err := NewGCM([]byte("short")); err == nil {
		t.Error("bad GCM key accepted")
	}
}

// TestTruncatedCMACLengths truncates tags to the lengths the protocols
// use (SECOC 24–64 bits, PKES 64) and checks each verifies through the
// constant-time comparison the endpoints use.
func TestTruncatedCMACLengths(t *testing.T) {
	t.Parallel()
	msg := []byte("autosec frame payload")
	c := mustCMAC(t, rfc4493Key)
	full := c.Sum(msg)
	for _, bits := range []int{24, 32, 64, 128} {
		again := c.Sum(msg)
		if !secchan.VerifyTrunc(full[:bits/8], again[:bits/8]) {
			t.Errorf("bits=%d: truncated tag does not verify", bits)
		}
	}
}

func TestVerifyTruncatedCMACRejectsTamper(t *testing.T) {
	t.Parallel()
	msg := []byte("engine rpm = 3000")
	c := mustCMAC(t, rfc4493Key)
	tag := c.Sum(msg)
	mac := tag[:8]
	bad := append([]byte(nil), msg...)
	bad[0] ^= 1
	if badTag := c.Sum(bad); secchan.VerifyTrunc(badTag[:8], mac) {
		t.Error("tampered message verified")
	}
	badMac := append([]byte(nil), mac...)
	badMac[3] ^= 0x80
	if secchan.VerifyTrunc(tag[:8], badMac) {
		t.Error("tampered MAC verified")
	}
}

// TestCMACPropertyVerifyRoundTrip: a tag from one keyed CMAC verifies
// against a second CMAC under the same key, as between a SECOC sender
// and receiver.
func TestCMACPropertyVerifyRoundTrip(t *testing.T) {
	t.Parallel()
	send, recv := mustCMAC(t, rfc4493Key), mustCMAC(t, rfc4493Key)
	f := func(msg []byte) bool {
		a, b := send.Sum(msg), recv.Sum(msg)
		return secchan.VerifyTrunc(a[:8], b[:8])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCMACDistinguishesMessages(t *testing.T) {
	t.Parallel()
	c := mustCMAC(t, rfc4493Key)
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return c.Sum(a) != c.Sum(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeriveKeyDeterministicAndDistinct(t *testing.T) {
	t.Parallel()
	root := []byte("0123456789abcdef")
	a := DeriveKey(root, "macsec-sak", "link-1", 16)
	b := DeriveKey(root, "macsec-sak", "link-1", 16)
	if !bytes.Equal(a, b) {
		t.Error("same inputs gave different keys")
	}
	c := DeriveKey(root, "macsec-sak", "link-2", 16)
	if bytes.Equal(a, c) {
		t.Error("different contexts gave same key")
	}
	d := DeriveKey(root, "secoc", "link-1", 16)
	if bytes.Equal(a, d) {
		t.Error("different labels gave same key")
	}
}

func TestDeriveKeyLengths(t *testing.T) {
	t.Parallel()
	root := []byte("0123456789abcdef")
	for _, n := range []int{1, 16, 32, 33, 64, 100} {
		if got := len(DeriveKey(root, "l", "c", n)); got != n {
			t.Errorf("length %d: got %d", n, got)
		}
	}
	if DeriveKey(root, "l", "c", 0) != nil {
		t.Error("zero length should return nil")
	}
}

func TestDeriveKeyLabelContextNotConfusable(t *testing.T) {
	t.Parallel()
	// ("ab","c") must differ from ("a","bc"): the separator byte matters.
	root := []byte("0123456789abcdef")
	a := DeriveKey(root, "ab", "c", 16)
	b := DeriveKey(root, "a", "bc", 16)
	if bytes.Equal(a, b) {
		t.Error("label/context boundary ambiguous")
	}
}

func TestGCMSealOpenRoundTrip(t *testing.T) {
	t.Parallel()
	g := mustGCM(t, DeriveKey([]byte("0123456789abcdef"), "gcm", "t", 16))
	pt := []byte("wheel speed frame")
	aad := []byte{0x88, 0xe5, 0x2c}
	sealed := g.Seal(nil, 0xA1B2C3D4E5F60718, 42, aad, pt)
	got, err := g.Open(nil, 0xA1B2C3D4E5F60718, 42, aad, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("round trip = %q", got)
	}
}

func TestGCMOpenRejectsWrongPNOrAAD(t *testing.T) {
	t.Parallel()
	g := mustGCM(t, DeriveKey([]byte("0123456789abcdef"), "gcm", "t", 16))
	sealed := g.Seal(nil, 1, 42, []byte("aad"), []byte("payload"))
	if _, err := g.Open(nil, 1, 43, []byte("aad"), sealed); err == nil {
		t.Error("wrong PN accepted")
	}
	if _, err := g.Open(nil, 2, 42, []byte("aad"), sealed); err == nil {
		t.Error("wrong SCI accepted")
	}
	if _, err := g.Open(nil, 1, 42, []byte("AAD"), sealed); err == nil {
		t.Error("wrong AAD accepted")
	}
	// Every failed open returns the one sentinel, which keeps the text
	// of the wrapped cipher error it replaced.
	for _, sealed := range [][]byte{sealed, sealed[:4]} {
		if _, err := g.Open(nil, 1, 43, []byte("aad"), sealed); err != errGCMAuth {
			t.Errorf("failed open of %d bytes returned %v, want the sentinel", len(sealed), err)
		}
	}
	const want = "vcrypto: gcm authentication failed: cipher: message authentication failed"
	if errGCMAuth.Error() != want {
		t.Errorf("sentinel text %q, want %q", errGCMAuth.Error(), want)
	}
}

// TestGCMTagVerify covers authentication-only use: sealing no plaintext
// yields a bare 16-byte tag over the AAD, and opening it appends
// nothing.
func TestGCMTagVerify(t *testing.T) {
	t.Parallel()
	g := mustGCM(t, DeriveKey([]byte("0123456789abcdef"), "gcm", "t", 16))
	msg := []byte("integrity-only frame")
	tag := g.Seal(nil, 7, 1, msg, nil)
	if len(tag) != 16 {
		t.Errorf("tag length %d, want 16", len(tag))
	}
	if pt, err := g.Open(nil, 7, 1, msg, tag); err != nil || len(pt) != 0 {
		t.Errorf("valid tag: open = %q, %v", pt, err)
	}
	if _, err := g.Open(nil, 7, 1, []byte("forged frame!!!!"), tag); err == nil {
		t.Error("forged message accepted")
	}
	if _, err := g.Open(nil, 7, 2, msg, tag); err == nil {
		t.Error("replayed tag with wrong PN accepted")
	}
}

func TestGCMPropertyRoundTrip(t *testing.T) {
	t.Parallel()
	key := DeriveKey([]byte("0123456789abcdef"), "gcm", "q", 16)
	send, recv := mustGCM(t, key), mustGCM(t, key)
	f := func(pt, aad []byte, pn uint32) bool {
		sealed := send.Seal(nil, 5, pn, aad, pt)
		got, err := recv.Open(nil, 5, pn, aad, sealed)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
