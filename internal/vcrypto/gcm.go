package vcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
)

// GCM is AES-GCM under one 16-, 24-, or 32-byte key, with the 12-byte
// nonce built from an 8-byte channel identifier and a 4-byte packet
// number — the construction MACsec uses (SCI ‖ PN). The AEAD is built
// on first use, so an endpoint that never seals or opens pays nothing
// for it. Not safe for concurrent use.
type GCM struct {
	key  []byte // held until the first Seal or Open builds aead
	aead cipher.AEAD
	// nonce lives in the GCM: a stack [12]byte would escape to the heap
	// through the cipher.AEAD interface call on every frame.
	nonce [12]byte
}

// NewGCM returns the AES-GCM keyed with a copy of key.
func NewGCM(key []byte) (*GCM, error) {
	if err := checkKey(key); err != nil {
		return nil, fmt.Errorf("vcrypto: gcm key: %w", err)
	}
	return &GCM{key: append([]byte(nil), key...)}, nil
}

// prepare builds the AEAD on first use and fills the nonce.
func (g *GCM) prepare(sci uint64, pn uint32) {
	if g.aead == nil {
		block, err := aes.NewCipher(g.key)
		if err == nil {
			g.aead, err = cipher.NewGCM(block)
		}
		if err != nil {
			panic(err) // unreachable: NewGCM checked the key length
		}
		g.key = nil
	}
	binary.BigEndian.PutUint64(g.nonce[0:8], sci)
	binary.BigEndian.PutUint32(g.nonce[8:12], pn)
}

// Seal encrypts and authenticates pt, authenticates aad, and appends
// ciphertext ‖ 16-byte tag to dst. With pt nil it appends the tag
// alone: an authentication-only tag over aad, which is how MACsec
// integrity-only mode and CANsec authentication-only profiles are
// modelled. To seal in place, pass pt[:0] as dst. aad may be the bytes
// already in dst (a header sealed after): only the appended region must
// not overlap it.
func (g *GCM) Seal(dst []byte, sci uint64, pn uint32, aad, pt []byte) []byte {
	g.prepare(sci, pn)
	return g.aead.Seal(dst, g.nonce[:], pt, aad)
}

// errGCMAuth is the one error a failed GCM open returns. Its text is
// the wrapped message it replaced, so no report byte depends on which
// of the two built it.
var errGCMAuth = errors.New("vcrypto: gcm authentication failed: cipher: message authentication failed")

// Open reverses Seal, appending the plaintext to dst, or returns the
// one authentication error. Opening a bare tag (sealed with pt nil)
// appends nothing.
func (g *GCM) Open(dst []byte, sci uint64, pn uint32, aad, sealed []byte) ([]byte, error) {
	g.prepare(sci, pn)
	pt, err := g.aead.Open(dst, g.nonce[:], sealed, aad)
	if err != nil {
		return nil, errGCMAuth
	}
	return pt, nil
}
