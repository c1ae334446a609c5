package vcrypto

import (
	"bytes"
	"crypto/aes"
	"fmt"
	"testing"
)

// TestExpandAES128MatchesStdlib checks the hand-rolled key schedule by
// running a single block through the assembly kernel (one lane, one
// step, pre-whitened zero state absorbs the plaintext) and comparing
// against crypto/aes. Skipped where the kernel is unavailable.
func TestExpandAES128MatchesStdlib(t *testing.T) {
	if !haveCMACAsm || !useCMACAsm {
		t.Skip("no AES-NI kernel on this target")
	}
	for _, key := range [][]byte{
		[]byte("0123456789abcdef"),
		make([]byte, 16),
		{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00},
	} {
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		var rk [176]byte
		expandAES128(key, &rk)
		for trial := 0; trial < 4; trial++ {
			var pt [16]byte
			for i := range pt {
				pt[i] = byte(trial*31 + i*7)
			}
			var want [16]byte
			block.Encrypt(want[:], pt[:])
			var states [8][16]byte
			var packed [128]byte
			copy(packed[0:16], pt[:])
			cmacSteps8(&rk, &packed[0], &states, 1)
			if states[0] != want {
				t.Fatalf("key %x trial %d: kernel %x, stdlib %x", key, trial, states[0], want)
			}
		}
	}
}

// TestCMACBatchMatchesScalar drives the batched path over a matrix of
// batch sizes and message lengths — empty messages, block-aligned,
// ragged, mixed lengths in one batch — and requires bit-identity with
// per-message Sum.
func TestCMACBatchMatchesScalar(t *testing.T) {
	key := []byte("0123456789abcdef")
	batch, scalar := mustCMAC(t, key), mustCMAC(t, key)
	lengths := [][]int{
		{0},
		{16},
		{64},
		{5},
		{0, 1, 15, 16, 17, 31, 32, 33},
		{64, 64, 64, 64, 64, 64, 64, 64},
		{64, 64, 64, 64, 64, 64, 64, 64, 64}, // spills into a second group
		{100, 3, 48, 0, 255, 16, 80, 7, 129, 64, 1},
	}
	for _, lens := range lengths {
		t.Run(fmt.Sprint(lens), func(t *testing.T) {
			msgs := make([][]byte, len(lens))
			for i, n := range lens {
				msgs[i] = make([]byte, n)
				for j := range msgs[i] {
					msgs[i][j] = byte(i*37 + j)
				}
			}
			tags := make([][16]byte, len(msgs))
			if err := batch.SumBatch(msgs, tags); err != nil {
				t.Fatal(err)
			}
			for i, msg := range msgs {
				if want := scalar.Sum(msg); tags[i] != want {
					t.Fatalf("msg %d (len %d): batch %x, scalar %x", i, len(msg), tags[i], want)
				}
			}
		})
	}
}

// TestCMACBatchShortTags rejects an undersized tag slice instead of
// writing out of bounds.
func TestCMACBatchShortTags(t *testing.T) {
	c := mustCMAC(t, []byte("0123456789abcdef"))
	if err := c.SumBatch(make([][]byte, 3), make([][16]byte, 2)); err == nil {
		t.Fatal("want error for tags shorter than msgs")
	}
}

// FuzzCMACBatchEquivalence differentially fuzzes SumBatch (assembly
// kernel on amd64, scalar grouping elsewhere) against per-message Sum
// over arbitrary keys, batch shapes, and message lengths. The batch
// runs twice on one CMAC, so scratch reused from the first call must
// not leak into the second. Wired into the CI fuzz-smoke job.
func FuzzCMACBatchEquivalence(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte{}, uint8(1))
	f.Add([]byte("0123456789abcdef"), []byte("hello world, this is a cmac batch"), uint8(3))
	f.Add(make([]byte, 16), bytes.Repeat([]byte{0xa5}, 200), uint8(9))
	f.Add([]byte("ffffffffffffffff"), bytes.Repeat([]byte{1}, 64), uint8(16))
	f.Fuzz(func(t *testing.T, key, pool []byte, n uint8) {
		if len(key) != 16 {
			t.Skip()
		}
		count := int(n)%17 + 1
		// Slice the fuzz pool into count messages of data-dependent
		// lengths, covering empty, ragged, and multi-block cases.
		msgs := make([][]byte, count)
		off := 0
		for i := range msgs {
			if off >= len(pool) {
				msgs[i] = nil
				continue
			}
			l := (int(pool[off]) * 7) % (len(pool) - off + 1)
			msgs[i] = pool[off : off+l]
			off += l
		}
		batch, scalar := mustCMAC(t, key), mustCMAC(t, key)
		tags := make([][16]byte, count)
		for pass := 0; pass < 2; pass++ {
			if err := batch.SumBatch(msgs, tags); err != nil {
				t.Fatal(err)
			}
			for i, msg := range msgs {
				if want := scalar.Sum(msg); tags[i] != want {
					t.Fatalf("pass %d msg %d (len %d): batch %x, scalar %x", pass, i, len(msg), tags[i], want)
				}
			}
		}
	})
}
