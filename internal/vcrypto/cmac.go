// Package vcrypto provides the cryptographic building blocks used by the
// vehicle security protocol stacks (SECOC, MACsec, CANsec, UWB STS) that
// the Go standard library does not ship directly: AES-CMAC (RFC 4493),
// AES-GCM with the MACsec-style SCI ‖ PN nonce, a counter-mode KDF (NIST
// SP 800-108 style), and a simple key-hierarchy deriver.
//
// The keyed primitives are values the protocol endpoints own: NewCMAC
// and NewGCM take a key once, and the endpoint keeps the keyed value
// for its lifetime. Like the endpoints, they are not safe for
// concurrent use: each carries its own working buffers, so the
// per-frame path takes no lock, consults no shared cache and borrows
// nothing from a pool. The package keeps no per-key state of its own.
//
// Everything here wraps crypto/aes, crypto/cipher, crypto/hmac, and
// crypto/sha256 from the standard library; no primitives are invented.
//
// Underpins every protected-channel experiment (tab1, fig4-fig6, exp-
// vehicle, exp-zc) as the shared crypto substrate.
package vcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// CMAC is AES-CMAC (RFC 4493) under one 16-, 24-, or 32-byte key. The
// key schedule and subkeys are derived on first use, so an endpoint
// that never MACs pays nothing for them. Not safe for concurrent use.
type CMAC struct {
	key    []byte // held until the first Sum expands it
	block  cipher.Block
	k1, k2 [16]byte // the RFC 4493 §2.3 subkeys
	// buf is the chaining/output pair. The slices handed to
	// cipher.Block.Encrypt cross an interface boundary, so stack-local
	// arrays would escape; a pair that lives in the CMAC keeps Sum
	// allocation-free, which the SECOC receiver's forgery-sweep reject
	// path depends on.
	buf [2][16]byte
}

// NewCMAC returns the CMAC keyed with a copy of key.
func NewCMAC(key []byte) (*CMAC, error) {
	if err := checkKey(key); err != nil {
		return nil, fmt.Errorf("vcrypto: cmac key: %w", err)
	}
	return &CMAC{key: append([]byte(nil), key...)}, nil
}

// checkKey applies crypto/aes's key-length rule up front, so the keyed
// values can defer the key expansion itself.
func checkKey(key []byte) error {
	switch len(key) {
	case 16, 24, 32:
		return nil
	}
	return aes.KeySizeError(len(key))
}

// expand derives the key schedule and the subkeys from the held key.
func (c *CMAC) expand() {
	block, err := aes.NewCipher(c.key)
	if err != nil {
		panic(err) // unreachable: NewCMAC checked the key length
	}
	c.block = block
	var l [16]byte
	block.Encrypt(l[:], l[:])
	c.k1 = dbl(l)
	c.k2 = dbl(c.k1)
	c.key = nil
}

// Sum returns the full 16-byte AES-CMAC of msg. buf[0] carries the
// CBC-MAC chaining value and buf[1] receives the tag.
func (c *CMAC) Sum(msg []byte) [16]byte {
	if c.key != nil {
		c.expand()
	}
	x := &c.buf[0]
	*x = [16]byte{}

	n := (len(msg) + 15) / 16 // number of blocks
	lastComplete := n > 0 && len(msg)%16 == 0
	if n == 0 {
		n = 1
	}

	for i := 0; i < n-1; i++ {
		xorInto(x, msg[i*16:(i+1)*16])
		c.block.Encrypt(x[:], x[:])
	}

	var last [16]byte
	if lastComplete {
		copy(last[:], msg[(n-1)*16:])
		for i := range last {
			last[i] ^= c.k1[i]
		}
	} else {
		rem := msg[(n-1)*16:]
		if len(msg) == 0 {
			rem = nil
		}
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for i := range last {
			last[i] ^= c.k2[i]
		}
	}
	for i := range x {
		x[i] ^= last[i]
	}
	c.block.Encrypt(c.buf[1][:], x[:])
	return c.buf[1]
}

// dbl is the GF(2^128) doubling used for CMAC subkey derivation.
func dbl(in [16]byte) [16]byte {
	var out [16]byte
	carry := byte(0)
	for i := 15; i >= 0; i-- {
		out[i] = in[i]<<1 | carry
		carry = in[i] >> 7
	}
	if carry != 0 {
		out[15] ^= 0x87
	}
	return out
}

func xorInto(x *[16]byte, block []byte) {
	for i := 0; i < 16; i++ {
		x[i] ^= block[i]
	}
}
