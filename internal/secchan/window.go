package secchan

// Window is a sliding-bitmap anti-replay window in the style of
// RFC 4303 §3.4.3: it tracks the highest sequence number seen and a
// 64-entry bitmap of the sequence numbers at and below it, accepting a
// sequence exactly once as long as it is not more than Size (nor 64)
// below the highest. Sequence zero is never acceptable — every
// protocol on this kernel starts its counter at one, so zero is either
// an uninitialised sender or a crafted packet.
//
// Check and Mark are split so the caller can authenticate between
// them: a forged sequence number must not advance the window, so the
// receive path is Check → verify MAC → Mark, the order RFC 4303
// prescribes.
//
// Sequences are uint64 and never wrap inside the window; protocols
// with 32-bit counters widen before calling in and rekey at counter
// exhaustion, so the top of the uint64 space is unreachable.
type Window struct {
	// Size is the accepted depth below the highest sequence seen.
	// The bitmap caps the effective depth at 64 (the RFC's common
	// choice; its minimum is 32).
	Size uint32

	high   uint64
	bitmap uint64 // bit d set ⇒ high-d already seen (bit 0 = high)
}

// Check reports whether seq would be acceptable: unseen and within the
// window. It does not change any state.
func (w *Window) Check(seq uint64) bool {
	if seq == 0 {
		return false
	}
	if seq > w.high {
		return true
	}
	diff := w.high - seq
	if diff >= uint64(w.Size) || diff >= 64 {
		return false
	}
	return w.bitmap&(1<<diff) == 0
}

// Mark records seq as seen, sliding the window forward when seq is a
// new highest. Call only after Check accepted the sequence and the
// packet authenticated.
func (w *Window) Mark(seq uint64) {
	if seq > w.high {
		shift := seq - w.high
		if shift >= 64 {
			w.bitmap = 0
		} else {
			w.bitmap <<= shift
		}
		w.bitmap |= 1 // bit 0 = the new high itself
		w.high = seq
		return
	}
	w.bitmap |= 1 << (w.high - seq)
}

// High returns the highest sequence number marked so far.
func (w *Window) High() uint64 { return w.high }

// Counter is a strictly-increasing freshness counter with an
// acceptance window: sequence seq is acceptable iff
// last < seq ≤ last+Window. Unlike Window it keeps no bitmap — once a
// sequence commits, everything at or below it is stale — which is the
// CANsec (CiA 613-2) freshness rule: tolerate bounded loss ahead,
// never accept reordering behind.
//
// The comparison is computed as seq-last ≤ Window in uint64, so it is
// exact even when last+Window would overflow the sequence space.
type Counter struct {
	// Window is how far above the last accepted sequence a new one
	// may land (tolerates lost frames).
	Window uint64

	last uint64
}

// Accept reports whether seq is fresh: strictly above the last
// committed sequence and within the acceptance window.
func (c *Counter) Accept(seq uint64) bool {
	return seq > c.last && seq-c.last <= c.Window
}

// Commit records seq as the new highest accepted sequence. Call only
// after the frame authenticated.
func (c *Counter) Commit(seq uint64) { c.last = seq }

// Last returns the last committed sequence.
func (c *Counter) Last() uint64 { return c.last }

// LenientAccept is the 802.1AE replay check: with window zero only
// strictly increasing sequences pass; with a window, any non-zero
// sequence above high-window passes — including duplicates, which
// MACsec leaves to the ICV-protected upper layers. Computed entirely
// in uint64 so seq+window cannot wrap for 32-bit packet numbers near
// exhaustion (the overflow bug fixed in package macsec).
func LenientAccept(high, seq, window uint64) bool {
	if window == 0 {
		return seq > high
	}
	return seq+window > high && seq != 0
}
