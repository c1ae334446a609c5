package vcrypto

import "fmt"

// cmacLanes is the width of the batched kernel: 8 independent CBC-MAC
// chains per assembly call, enough to cover AESENC's latency/throughput
// gap on every AES-NI core.
const cmacLanes = 8

// SumBatch computes the AES-CMAC (RFC 4493) of every msgs[i], writing
// the full 16-byte tags into tags[i]. It is bit-identical to calling
// Sum per message (the differential fuzzer enforces this) and
// allocation-free on the steady state; with AES-NI it pipelines up to 8
// message chains through one AES unit, amortizing the per-call overhead
// a single latency-bound chain cannot hide.
func (c *CMAC) SumBatch(msgs [][]byte, tags [][16]byte) error {
	if len(tags) < len(msgs) {
		return fmt.Errorf("vcrypto: SumBatch tags %d < msgs %d", len(tags), len(msgs))
	}
	st := c.state()
	if !useCMACAsm || !st.rkOK || len(msgs) < 2 {
		for i, msg := range msgs {
			tags[i] = cmacCore(st, msg, &c.buf)
		}
		return nil
	}
	for base := 0; base < len(msgs); base += cmacLanes {
		end := min(base+cmacLanes, len(msgs))
		cmacGroup(st, msgs[base:end], tags[base:end], &c.batch)
	}
	return nil
}

// cmacBatchScratch holds a CMAC's batch working memory: the packed
// [step][lane]block gather buffer the kernel streams through, and the 8
// lane states. It lives in the CMAC because both cross the assembly
// boundary and would otherwise escape per call.
type cmacBatchScratch struct {
	packed []byte
	states [cmacLanes][16]byte
}

// cmacGroup runs up to 8 messages through the assembly kernel. The
// gather pass lays message blocks out as [step][lane] with the RFC 4493
// §2.4 subkey fold applied to each lane's final block, so the kernel
// itself is pure block chaining. Ragged lengths are handled by cutting
// the step stream at every distinct per-lane block count: a lane's tag
// is read from its state exactly at its final step, after which the
// lane absorbs zero blocks (its state keeps being encrypted, but the
// result is never read).
func cmacGroup(st *cmacState, msgs [][]byte, tags [][16]byte, sc *cmacBatchScratch) {
	var nb [cmacLanes]int
	nsteps := 0
	for i, msg := range msgs {
		n := (len(msg) + 15) / 16
		if n == 0 {
			n = 1
		}
		nb[i] = n
		if n > nsteps {
			nsteps = n
		}
	}
	need := nsteps * cmacLanes * 16
	if cap(sc.packed) < need {
		sc.packed = make([]byte, need)
	}
	packed := sc.packed[:need]
	clear(packed)

	for i, msg := range msgs {
		n := nb[i]
		for s := 0; s < n-1; s++ {
			copy(packed[s*cmacLanes*16+i*16:], msg[s*16:(s+1)*16])
		}
		dst := packed[(n-1)*cmacLanes*16+i*16:]
		dst = dst[:16]
		if len(msg) > 0 && len(msg)%16 == 0 {
			rem := msg[(n-1)*16:]
			for j := 0; j < 16; j++ {
				dst[j] = rem[j] ^ st.k1[j]
			}
		} else {
			rem := msg[(n-1)*16:]
			copy(dst, rem)
			dst[len(rem)] = 0x80
			for j := 0; j < 16; j++ {
				dst[j] ^= st.k2[j]
			}
		}
	}

	sc.states = [cmacLanes][16]byte{}
	done := 0
	for done < nsteps {
		next := nsteps
		for i := range msgs {
			if nb[i] > done && nb[i] < next {
				next = nb[i]
			}
		}
		cmacSteps8(&st.rk, &packed[done*cmacLanes*16], &sc.states, next-done)
		for i := range msgs {
			if nb[i] == next {
				tags[i] = sc.states[i]
			}
		}
		done = next
	}
}
