package vcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// GCMSeal encrypts and authenticates plaintext with AES-GCM under key,
// using a 12-byte nonce constructed from the 8-byte channel identifier
// and 4-byte packet number — the construction MACsec uses (SCI || PN).
// aad is additionally authenticated but not encrypted. The returned
// slice is ciphertext||tag (16-byte tag).
func GCMSeal(key []byte, sci uint64, pn uint32, aad, plaintext []byte) ([]byte, error) {
	aead, err := aeadFor(key)
	if err != nil {
		return nil, err
	}
	nonce := noncePool.Get().(*[12]byte)
	fillNonce(nonce, sci, pn)
	out := aead.Seal(nil, nonce[:], plaintext, aad)
	noncePool.Put(nonce)
	return out, nil
}

// GCMOpen reverses GCMSeal, returning the plaintext or an error if
// authentication fails.
func GCMOpen(key []byte, sci uint64, pn uint32, aad, sealed []byte) ([]byte, error) {
	pt, err := GCMOpenInto(nil, key, sci, pn, aad, sealed)
	if err != nil {
		return nil, err
	}
	return pt, nil
}

// errGCMAuth is the one error a failed GCM open returns. Its text is
// the wrapped message it replaced, so no report byte depends on which
// of the two built it.
var errGCMAuth = errors.New("vcrypto: gcm authentication failed: cipher: message authentication failed")

// GCMOpenInto is GCMOpen appending the plaintext into dst.
func GCMOpenInto(dst, key []byte, sci uint64, pn uint32, aad, sealed []byte) ([]byte, error) {
	aead, err := aeadFor(key)
	if err != nil {
		return nil, err
	}
	nonce := noncePool.Get().(*[12]byte)
	fillNonce(nonce, sci, pn)
	pt, err := aead.Open(dst, nonce[:], sealed, aad)
	noncePool.Put(nonce)
	if err != nil {
		return nil, errGCMAuth
	}
	return pt, nil
}

// GCMTag computes an authentication-only tag (integrity without
// confidentiality) by sealing an empty plaintext with msg as AAD. This
// is how MACsec integrity-only mode and CANsec authentication-only
// profiles are modelled.
func GCMTag(key []byte, sci uint64, pn uint32, msg []byte) ([]byte, error) {
	return GCMSeal(key, sci, pn, msg, nil)
}

// GCMVerifyTag checks a tag produced by GCMTag.
func GCMVerifyTag(key []byte, sci uint64, pn uint32, msg, tag []byte) bool {
	_, err := GCMOpen(key, sci, pn, msg, tag)
	return err == nil
}

// aeadCacheCap bounds the per-key AEAD cache, with the same
// flush-on-overflow policy as the CMAC state cache: drop everything,
// let live keys re-derive. See cmacCacheCap for the rationale.
const aeadCacheCap = 256

// aeadCache memoizes the AES-GCM AEAD per key. Every protected frame
// used to pay a full AES key expansion plus GCM table setup inside
// newGCM — by far the dominant cost of the MACsec/IPsec/(D)TLS/CANsec
// per-frame paths. A sealed AES-GCM AEAD is immutable after
// construction, so one instance serves concurrent sessions; caching it
// changes no output bytes.
var (
	aeadMu    sync.RWMutex
	aeadCache = map[string]cipher.AEAD{}
)

func aeadFor(key []byte) (cipher.AEAD, error) {
	aeadMu.RLock()
	aead, ok := aeadCache[string(key)]
	aeadMu.RUnlock()
	if ok {
		return aead, nil
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("vcrypto: gcm key: %w", err)
	}
	aead, err = cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	aeadMu.Lock()
	if exist, ok := aeadCache[string(key)]; ok {
		aead = exist
	} else {
		if len(aeadCache) >= aeadCacheCap {
			aeadCache = make(map[string]cipher.AEAD, aeadCacheCap)
		}
		aeadCache[string(key)] = aead
	}
	aeadMu.Unlock()
	return aead, nil
}

// aeadCacheLen exposes the live entry count (cache-bound tests).
func aeadCacheLen() int {
	aeadMu.RLock()
	defer aeadMu.RUnlock()
	return len(aeadCache)
}

// noncePool recycles nonce buffers: a stack [12]byte would escape to
// the heap through the cipher.AEAD interface call, costing one
// allocation per sealed or opened frame on the hot paths.
var noncePool = sync.Pool{New: func() any { return new([12]byte) }}

func fillNonce(nonce *[12]byte, sci uint64, pn uint32) {
	binary.BigEndian.PutUint64(nonce[0:8], sci)
	binary.BigEndian.PutUint32(nonce[8:12], pn)
}
