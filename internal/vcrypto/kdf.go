package vcrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
)

// DeriveKey implements a counter-mode KDF in the style of NIST SP
// 800-108 using HMAC-SHA256 as the PRF. It derives length bytes of key
// material from a parent key, a label identifying the purpose, and a
// context binding the derivation to a session or identity.
//
// The same (key, label, context, length) always yields the same output,
// which the protocol stacks rely on for session-key agreement.
func DeriveKey(key []byte, label, context string, length int) []byte {
	if length <= 0 {
		return nil
	}
	out := make([]byte, 0, length)
	var counter uint32 = 1
	for len(out) < length {
		mac := hmac.New(sha256.New, key)
		var ctr [4]byte
		binary.BigEndian.PutUint32(ctr[:], counter)
		mac.Write(ctr[:])
		mac.Write([]byte(label))
		mac.Write([]byte{0x00})
		mac.Write([]byte(context))
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(length)*8)
		mac.Write(lenBuf[:])
		out = append(out, mac.Sum(nil)...)
		counter++
	}
	return out[:length]
}
