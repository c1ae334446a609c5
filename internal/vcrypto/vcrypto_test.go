package vcrypto

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tag, err := CMAC(rfc4493Key, mustHex(t, tc.msg))
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(tag[:]); got != tc.want {
				t.Errorf("CMAC = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestCMACRejectsBadKey(t *testing.T) {
	t.Parallel()
	if _, err := CMAC([]byte("short"), nil); err == nil {
		t.Error("bad key accepted")
	}
}

func TestTruncatedCMACLengths(t *testing.T) {
	t.Parallel()
	msg := []byte("autosec frame payload")
	for _, bits := range []int{24, 32, 64, 128} {
		mac, err := TruncatedCMAC(rfc4493Key, msg, bits)
		if err != nil {
			t.Fatal(err)
		}
		if len(mac) != bits/8 {
			t.Errorf("bits=%d: len=%d", bits, len(mac))
		}
		ok, err := VerifyTruncatedCMAC(rfc4493Key, msg, mac)
		if err != nil || !ok {
			t.Errorf("bits=%d: verify failed (%v)", bits, err)
		}
	}
}

func TestTruncatedCMACInvalidBits(t *testing.T) {
	t.Parallel()
	for _, bits := range []int{0, -8, 7, 129, 136} {
		if _, err := TruncatedCMAC(rfc4493Key, nil, bits); err == nil {
			t.Errorf("bits=%d accepted", bits)
		}
	}
}

func TestVerifyTruncatedCMACRejectsTamper(t *testing.T) {
	t.Parallel()
	msg := []byte("engine rpm = 3000")
	mac, err := TruncatedCMAC(rfc4493Key, msg, 64)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), msg...)
	bad[0] ^= 1
	if ok, _ := VerifyTruncatedCMAC(rfc4493Key, bad, mac); ok {
		t.Error("tampered message verified")
	}
	badMac := append([]byte(nil), mac...)
	badMac[3] ^= 0x80
	if ok, _ := VerifyTruncatedCMAC(rfc4493Key, msg, badMac); ok {
		t.Error("tampered MAC verified")
	}
}

func TestCMACPropertyVerifyRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(msg []byte) bool {
		mac, err := TruncatedCMAC(rfc4493Key, msg, 64)
		if err != nil {
			return false
		}
		ok, err := VerifyTruncatedCMAC(rfc4493Key, msg, mac)
		return err == nil && ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCMACDistinguishesMessages(t *testing.T) {
	t.Parallel()
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		ta, err1 := CMAC(rfc4493Key, a)
		tb, err2 := CMAC(rfc4493Key, b)
		return err1 == nil && err2 == nil && ta != tb
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
	key := DeriveKey([]byte("0123456789abcdef"), "gcm", "t", 16)
	pt := []byte("wheel speed frame")
	aad := []byte{0x88, 0xe5, 0x2c}
	sealed, err := GCMSeal(key, 0xA1B2C3D4E5F60718, 42, aad, pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GCMOpen(key, 0xA1B2C3D4E5F60718, 42, aad, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("round trip = %q", got)
	}
}

func TestGCMOpenRejectsWrongPNOrAAD(t *testing.T) {
	t.Parallel()
	key := DeriveKey([]byte("0123456789abcdef"), "gcm", "t", 16)
	sealed, err := GCMSeal(key, 1, 42, []byte("aad"), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GCMOpen(key, 1, 43, []byte("aad"), sealed); err == nil {
		t.Error("wrong PN accepted")
	}
	if _, err := GCMOpen(key, 2, 42, []byte("aad"), sealed); err == nil {
		t.Error("wrong SCI accepted")
	}
	if _, err := GCMOpen(key, 1, 42, []byte("AAD"), sealed); err == nil {
		t.Error("wrong AAD accepted")
	}
	// Every failed open returns the one sentinel, which keeps the text
	// of the wrapped cipher error it replaced.
	for _, sealed := range [][]byte{sealed, sealed[:4]} {
		if _, err := GCMOpenInto(nil, key, 1, 43, []byte("aad"), sealed); err != errGCMAuth {
			t.Errorf("failed open of %d bytes returned %v, want the sentinel", len(sealed), err)
		}
	}
	const want = "vcrypto: gcm authentication failed: cipher: message authentication failed"
	if errGCMAuth.Error() != want {
		t.Errorf("sentinel text %q, want %q", errGCMAuth.Error(), want)
	}
}

func TestGCMTagVerify(t *testing.T) {
	t.Parallel()
	key := DeriveKey([]byte("0123456789abcdef"), "gcm", "t", 16)
	msg := []byte("integrity-only frame")
	tag, err := GCMTag(key, 7, 1, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tag) != 16 {
		t.Errorf("tag length %d, want 16", len(tag))
	}
	if !GCMVerifyTag(key, 7, 1, msg, tag) {
		t.Error("valid tag rejected")
	}
	if GCMVerifyTag(key, 7, 1, []byte("forged frame!!!!"), tag) {
		t.Error("forged message accepted")
	}
	if GCMVerifyTag(key, 7, 2, msg, tag) {
		t.Error("replayed tag with wrong PN accepted")
	}
}

func TestGCMPropertyRoundTrip(t *testing.T) {
	t.Parallel()
	key := DeriveKey([]byte("0123456789abcdef"), "gcm", "q", 16)
	f := func(pt, aad []byte, pn uint32) bool {
		sealed, err := GCMSeal(key, 5, pn, aad, pt)
		if err != nil {
			return false
		}
		got, err := GCMOpen(key, 5, pn, aad, sealed)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
