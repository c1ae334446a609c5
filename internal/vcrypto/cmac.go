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

// cmacState is the per-key precomputation of CMAC: the expanded AES key
// schedule and the RFC 4493 §2.3 subkeys. For 128-bit keys on AES-NI
// hardware it also carries the raw round keys the batched assembly
// kernel consumes (rkOK), since cipher.Block does not expose its
// schedule.
type cmacState struct {
	block  cipher.Block
	k1, k2 [16]byte
	rk     [176]byte
	rkOK   bool
}

// CMAC is AES-CMAC (RFC 4493) under one 16-, 24-, or 32-byte key. The
// key schedule and subkeys are derived on first use, so an endpoint
// that never MACs pays nothing for them. Not safe for concurrent use.
type CMAC struct {
	key []byte // held until the first Sum or SumBatch expands it
	st  cmacState
	// buf is the chaining/output pair. The slices handed to
	// cipher.Block.Encrypt cross an interface boundary, so stack-local
	// arrays would escape; a pair that lives in the CMAC keeps Sum
	// allocation-free, which the SECOC receiver's forgery-sweep reject
	// path depends on.
	buf   [2][16]byte
	batch cmacBatchScratch
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

// state returns the expanded key, deriving it on first use.
func (c *CMAC) state() *cmacState {
	if c.key == nil {
		return &c.st
	}
	block, err := aes.NewCipher(c.key)
	if err != nil {
		panic(err) // unreachable: NewCMAC checked the key length
	}
	c.st.block = block
	var l [16]byte
	block.Encrypt(l[:], l[:])
	c.st.k1 = dbl(l)
	c.st.k2 = dbl(c.st.k1)
	if haveCMACAsm && len(c.key) == 16 {
		expandAES128(c.key, &c.st.rk)
		c.st.rkOK = true
	}
	c.key = nil
	return &c.st
}

// Sum returns the full 16-byte AES-CMAC of msg.
func (c *CMAC) Sum(msg []byte) [16]byte {
	return cmacCore(c.state(), msg, &c.buf)
}

// cmacCore runs the RFC 4493 block chain using the caller-provided
// working pair: buf[0] is the CBC-MAC chaining value, buf[1] receives
// the final tag, returned by value.
func cmacCore(st *cmacState, msg []byte, buf *[2][16]byte) [16]byte {
	block, k1, k2 := st.block, st.k1, st.k2
	x := &buf[0]
	*x = [16]byte{}

	n := (len(msg) + 15) / 16 // number of blocks
	lastComplete := n > 0 && len(msg)%16 == 0
	if n == 0 {
		n = 1
	}

	for i := 0; i < n-1; i++ {
		xorInto(x, msg[i*16:(i+1)*16])
		block.Encrypt(x[:], x[:])
	}

	var last [16]byte
	if lastComplete {
		copy(last[:], msg[(n-1)*16:])
		for i := range last {
			last[i] ^= k1[i]
		}
	} else {
		rem := msg[(n-1)*16:]
		if len(msg) == 0 {
			rem = nil
		}
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}
	for i := range x {
		x[i] ^= last[i]
	}
	block.Encrypt(buf[1][:], x[:])
	return buf[1]
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
