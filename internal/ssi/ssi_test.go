package ssi

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

func kp(t *testing.T, b byte) *KeyPair {
	t.Helper()
	k, err := GenerateKeyPair(seed(b))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestGenerateKeyPairAndDID(t *testing.T) {
	k := kp(t, 1)
	if !k.DID.Valid() || k.DID.Method() != "auto" {
		t.Errorf("DID %s", k.DID)
	}
	k2 := kp(t, 1)
	if k.DID != k2.DID {
		t.Error("same seed gave different DIDs")
	}
	k3 := kp(t, 2)
	if k.DID == k3.DID {
		t.Error("different seeds gave same DID")
	}
	if _, err := GenerateKeyPair([]byte("short")); err == nil {
		t.Error("short seed accepted")
	}
}

func TestDIDValidity(t *testing.T) {
	if DID("not-a-did").Valid() {
		t.Error("junk accepted")
	}
	if !DID("did:web:example.com").Valid() {
		t.Error("did:web rejected")
	}
}

func TestRegistryImmutableGenesis(t *testing.T) {
	r := NewRegistry()
	k := kp(t, 1)
	if err := r.Register(NewDocument(k)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewDocument(k)); err == nil {
		t.Error("double registration accepted")
	}
	doc, err := r.Resolve(k.DID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.PublicKey, k.Public) {
		t.Error("resolved key differs")
	}
	if _, err := r.Resolve("did:auto:missing"); err == nil {
		t.Error("missing DID resolved")
	}
}

func TestRegistryUpdateRequiresCurrentKey(t *testing.T) {
	r := NewRegistry()
	k := kp(t, 1)
	if err := r.Register(NewDocument(k)); err != nil {
		t.Fatal(err)
	}
	rotated := kp(t, 9)
	v2 := NewDocument(k)
	v2.PublicKey = rotated.Public
	v2.Version = 2
	digest := v2.Hash()
	// Signed by the wrong key: rejected.
	wrong := kp(t, 5)
	if err := r.Update(v2, wrong.Sign(digest[:])); err == nil {
		t.Error("update signed by stranger accepted")
	}
	// Signed by the current key: accepted.
	if err := r.Update(v2, k.Sign(digest[:])); err != nil {
		t.Fatal(err)
	}
	doc, err := r.Resolve(k.DID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.PublicKey, rotated.Public) {
		t.Error("rotation not applied")
	}
	if len(r.History(k.DID)) != 2 {
		t.Error("history length wrong")
	}
	// Wrong version numbering rejected.
	v3 := v2.Clone()
	v3.Version = 5
	d3 := v3.Hash()
	if err := r.Update(v3, rotated.Sign(d3[:])); err == nil {
		t.Error("version skip accepted")
	}
}

func TestRegistryChainHeadDeterministic(t *testing.T) {
	build := func() [32]byte {
		r := NewRegistry()
		for b := byte(1); b <= 5; b++ {
			k, _ := GenerateKeyPair(seed(b))
			_ = r.Register(NewDocument(k))
		}
		return r.Head()
	}
	if build() != build() {
		t.Error("same writes, different heads")
	}
}

func issueCompat(t *testing.T, issuer *KeyPair, subject DID, now int64) *Credential {
	t.Helper()
	c, err := Issue(issuer, &Credential{
		ID: "cred-1", Type: "HardwareCompatibility",
		Issuer: issuer.DID, Subject: subject,
		Claims:   map[string]string{"platform": "zc-gen3", "sw": "brake-ctrl-2.1"},
		IssuedAt: now, ExpiresAt: now + 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func setupVerifier(t *testing.T, issuer *KeyPair, holder *KeyPair) *Verifier {
	t.Helper()
	r := NewRegistry()
	if err := r.Register(NewDocument(issuer)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewDocument(holder)); err != nil {
		t.Fatal(err)
	}
	tr := NewTrustRegistry()
	tr.AddAnchor("HardwareCompatibility", issuer.DID)
	return NewVerifier(r, tr)
}

func TestCredentialIssueVerify(t *testing.T) {
	oem := kp(t, 1)
	ecu := kp(t, 2)
	v := setupVerifier(t, oem, ecu)
	c := issueCompat(t, oem, ecu.DID, 100)
	if err := v.Verify(c, 200); err != nil {
		t.Fatal(err)
	}
}

func TestCredentialTamperRejected(t *testing.T) {
	oem := kp(t, 1)
	ecu := kp(t, 2)
	v := setupVerifier(t, oem, ecu)
	c := issueCompat(t, oem, ecu.DID, 100)
	c.Claims["sw"] = "malware-1.0"
	if err := v.Verify(c, 200); err == nil {
		t.Error("tampered claims accepted")
	}
}

func TestCredentialExpiry(t *testing.T) {
	oem := kp(t, 1)
	ecu := kp(t, 2)
	v := setupVerifier(t, oem, ecu)
	c := issueCompat(t, oem, ecu.DID, 100)
	if err := v.Verify(c, 100+3601); err == nil {
		t.Error("expired credential accepted")
	}
	if err := v.Verify(c, 50); err == nil {
		t.Error("not-yet-valid credential accepted")
	}
}

func TestCredentialRevocation(t *testing.T) {
	oem := kp(t, 1)
	ecu := kp(t, 2)
	v := setupVerifier(t, oem, ecu)
	c := issueCompat(t, oem, ecu.DID, 100)
	rl := NewRevocationList(oem, 100)
	if err := v.AddRevocationList(rl); err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(c, 200); err != nil {
		t.Fatal(err)
	}
	if err := rl.Revoke(oem, c.ID, 300); err != nil {
		t.Fatal(err)
	}
	if err := v.AddRevocationList(rl); err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(c, 400); err == nil {
		t.Error("revoked credential accepted")
	}
	// Forged revocation lists are rejected at install time.
	stranger := kp(t, 7)
	fake := NewRevocationList(stranger, 100)
	fake.Issuer = oem.DID
	if err := v.AddRevocationList(fake); err == nil {
		t.Error("forged revocation list installed")
	}
}

func TestUntrustedIssuerRejected(t *testing.T) {
	oem := kp(t, 1)
	ecu := kp(t, 2)
	mallory := kp(t, 3)
	v := setupVerifier(t, oem, ecu)
	if err := v.Registry.Register(NewDocument(mallory)); err != nil {
		t.Fatal(err)
	}
	c, err := Issue(mallory, &Credential{
		ID: "evil", Type: "HardwareCompatibility",
		Issuer: mallory.DID, Subject: ecu.DID,
		Claims: map[string]string{}, IssuedAt: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(c, 200); err == nil {
		t.Error("credential from untrusted issuer accepted")
	}
}

func TestAccreditationChain(t *testing.T) {
	anchor := kp(t, 1) // e.g. a regulator
	supplier := kp(t, 2)
	ecu := kp(t, 3)
	r := NewRegistry()
	for _, k := range []*KeyPair{anchor, supplier, ecu} {
		if err := r.Register(NewDocument(k)); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewTrustRegistry()
	tr.AddAnchor(AccreditationType, anchor.DID)
	v := NewVerifier(r, tr)

	// The anchor accredits the supplier to issue compatibility creds.
	acc, err := Issue(anchor, &Credential{
		ID: "acc-supplier", Type: AccreditationType,
		Issuer: anchor.DID, Subject: supplier.DID,
		Claims: map[string]string{"can_issue": "HardwareCompatibility"}, IssuedAt: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	v.Accreditations = append(v.Accreditations, acc)

	c, err := Issue(supplier, &Credential{
		ID: "compat-9", Type: "HardwareCompatibility",
		Issuer: supplier.DID, Subject: ecu.DID,
		Claims: map[string]string{"platform": "zc"}, IssuedAt: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(c, 100); err != nil {
		t.Fatalf("accredited issuer rejected: %v", err)
	}

	// Without the accreditation the same credential fails.
	v2 := NewVerifier(r, tr)
	if err := v2.Verify(c, 100); err == nil {
		t.Error("unaccredited issuer accepted")
	}
}

func TestPresentationProvesPossession(t *testing.T) {
	oem := kp(t, 1)
	ecu := kp(t, 2)
	thief := kp(t, 3)
	v := setupVerifier(t, oem, ecu)
	if err := v.Registry.Register(NewDocument(thief)); err != nil {
		t.Fatal(err)
	}
	c := issueCompat(t, oem, ecu.DID, 100)

	challenge := []byte("nonce-123")
	p, err := Present(ecu, challenge, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyPresentation(p, challenge, 200); err != nil {
		t.Fatal(err)
	}
	// Wrong challenge (replay) rejected.
	if err := v.VerifyPresentation(p, []byte("other"), 200); err == nil {
		t.Error("replayed presentation accepted")
	}
	// A thief holding the credential cannot present it.
	if _, err := Present(thief, challenge, c); err == nil {
		t.Error("presentation by non-subject was built")
	}
	// Forged holder signature rejected.
	p2 := *p
	p2.Signature = thief.Sign(p2.canonical())
	if err := v.VerifyPresentation(&p2, challenge, 200); err == nil {
		t.Error("forged holder signature accepted")
	}
}

func TestOfflineBundleVerifies(t *testing.T) {
	oem := kp(t, 1)
	ecu := kp(t, 2)
	v := setupVerifier(t, oem, ecu)
	c := issueCompat(t, oem, ecu.DID, 100)

	bundle, err := NewOfflineBundle(v, []*Credential{c}, 150, 3600)
	if err != nil {
		t.Fatal(err)
	}
	challenge := []byte("offline-nonce")
	p, err := Present(ecu, challenge, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := bundle.VerifyOffline(p, challenge, 200); err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}
	// Stale bundle rejected.
	if err := bundle.VerifyOffline(p, challenge, 150+3601); err == nil {
		t.Error("stale bundle accepted")
	}
}

func TestOfflineBundleRespectsSnapshottedRevocation(t *testing.T) {
	oem := kp(t, 1)
	ecu := kp(t, 2)
	v := setupVerifier(t, oem, ecu)
	c := issueCompat(t, oem, ecu.DID, 100)
	rl := NewRevocationList(oem, 100)
	if err := rl.Revoke(oem, c.ID, 110); err != nil {
		t.Fatal(err)
	}
	if err := v.AddRevocationList(rl); err != nil {
		t.Fatal(err)
	}
	bundle, err := NewOfflineBundle(v, []*Credential{c}, 150, 3600)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Present(ecu, []byte("n"), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := bundle.VerifyOffline(p, []byte("n"), 200); err == nil {
		t.Error("revoked credential accepted offline")
	}
}

func TestCanonicalFormUnambiguous(t *testing.T) {
	oem := kp(t, 1)
	f := func(k1, v1, k2, v2 string) bool {
		if strings.ContainsAny(k1+v1+k2+v2, "=\n:") || k1 == k2 {
			return true // skip delimiter collisions; claims are plain words
		}
		a := &Credential{ID: "x", Type: "T", Issuer: oem.DID, Subject: "did:auto:s",
			Claims: map[string]string{k1: v1, k2: v2}}
		b := &Credential{ID: "x", Type: "T", Issuer: oem.DID, Subject: "did:auto:s",
			Claims: map[string]string{k2: v2, k1: v1}}
		return bytes.Equal(a.canonical(), b.canonical())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIssueValidation(t *testing.T) {
	oem := kp(t, 1)
	other := kp(t, 2)
	if _, err := Issue(oem, &Credential{ID: "x", Type: "T", Issuer: other.DID, Subject: oem.DID}); err == nil {
		t.Error("issuer mismatch accepted")
	}
	if _, err := Issue(oem, &Credential{Type: "T", Issuer: oem.DID, Subject: oem.DID}); err == nil {
		t.Error("missing ID accepted")
	}
	if _, err := Issue(oem, &Credential{ID: "x", Type: "T", Issuer: oem.DID, Subject: "junk"}); err == nil {
		t.Error("invalid subject accepted")
	}
}
