// Package ssi implements self-sovereign identity for the
// software-defined-vehicle trust relationships of the paper's §IV:
// decentralized identifiers (DIDs) with Ed25519 keys, DID documents in
// an immutable verifiable data registry, verifiable credentials and
// presentations, multiple independent trust anchors with bounded
// accreditation chains, revocation lists, and offline verification
// bundles for the disconnected scenarios of ref [34].
//
// Timestamps are explicit int64 Unix-style seconds supplied by the
// caller (the simulation clock), never wall-clock time.
//
// Exercised by experiment fig7.
package ssi

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base32"
	"fmt"
	"sort"
	"strings"
)

// DID is a decentralized identifier, e.g. "did:auto:ABC...".
type DID string

// Method extracts the DID method ("auto", "web", ...).
func (d DID) Method() string {
	parts := strings.SplitN(string(d), ":", 3)
	if len(parts) < 3 || parts[0] != "did" {
		return ""
	}
	return parts[1]
}

// Valid reports whether the identifier is structurally a DID.
func (d DID) Valid() bool { return d.Method() != "" }

// KeyPair is an Ed25519 signing identity bound to a DID.
type KeyPair struct {
	DID     DID
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair creates a key pair and its did:auto identifier from a
// deterministic seed (the simulation supplies seeds; production code
// would use crypto/rand).
func GenerateKeyPair(seed []byte) (*KeyPair, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("ssi: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	sum := sha256.Sum256(pub)
	id := base32.StdEncoding.WithPadding(base32.NoPadding).EncodeToString(sum[:16])
	return &KeyPair{
		DID:     DID("did:auto:" + id),
		Public:  pub,
		private: priv,
	}, nil
}

// Sign signs msg with the private key.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Document is a DID document: the public material a verifier resolves.
type Document struct {
	ID DID
	// PublicKey is the current verification key.
	PublicKey ed25519.PublicKey
	// Controller optionally names another DID that may rotate this
	// document's key.
	Controller DID
	// Services maps service names to endpoints (e.g. "telemetry" →
	// URL); informational.
	Services map[string]string
	// Version increments on each update.
	Version int
}

// NewDocument builds the genesis document for a key pair.
func NewDocument(k *KeyPair) *Document {
	return &Document{ID: k.DID, PublicKey: k.Public, Services: map[string]string{}, Version: 1}
}

// canonical serializes the document deterministically for hashing.
func (d *Document) canonical() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "id=%s\npk=%x\ncontroller=%s\nversion=%d\n", d.ID, d.PublicKey, d.Controller, d.Version)
	names := make([]string, 0, len(d.Services))
	for n := range d.Services {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "svc:%s=%s\n", n, d.Services[n])
	}
	return []byte(b.String())
}

// Hash returns the document digest used by the registry's chain.
func (d *Document) Hash() [32]byte { return sha256.Sum256(d.canonical()) }

// Clone deep-copies the document.
func (d *Document) Clone() *Document {
	c := *d
	c.PublicKey = append(ed25519.PublicKey(nil), d.PublicKey...)
	c.Services = make(map[string]string, len(d.Services))
	for k, v := range d.Services {
		c.Services[k] = v
	}
	return &c
}
