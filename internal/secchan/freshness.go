package secchan

// Freshness reconstructs full freshness values from the truncated
// low-order bits that travel on the wire — the AUTOSAR SECOC receiver
// algorithm, generalised. The receiver holds the last authenticated
// full value; a PDU carries only the low Bits of the sender's counter,
// and Reconstruct searches the candidates in (last, last+Window] whose
// truncation matches, letting the caller's MAC check pick the real
// one. Replayed or stale PDUs fail because no in-window candidate
// matches both the truncation and the MAC.
type Freshness struct {
	// Bits is how many low-order counter bits travel in the PDU
	// (1–64; SECOC profile 1 uses 8).
	Bits int
	// Window is how far ahead of the last authenticated value a
	// reconstructed candidate may be (tolerates lost PDUs).
	Window uint64

	last uint64
}

// Mask returns the bitmask selecting the transmitted low-order bits.
func (f *Freshness) Mask() uint64 {
	if f.Bits >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<f.Bits - 1
}

// Reconstruct searches the candidate full values in (last, last+Window]
// whose low Bits equal trunc, in increasing order, calling try on each.
// The first candidate try accepts (typically: the MAC verifies under
// it) is committed as the new last value and returned. If no candidate
// matches, the state is unchanged and ok is false.
//
// If last+Window would wrap the uint64 counter space the search range
// is empty and every PDU is rejected: a counter that large means the
// channel outlived its key, and rekeying resets the counter long
// before.
func (f *Freshness) Reconstruct(trunc uint64, try func(candidate uint64) bool) (value uint64, ok bool) {
	it := f.Candidates(trunc)
	for it.Next() {
		if try(it.Value()) {
			it.Commit()
			return it.Value(), true
		}
	}
	return 0, false
}

// Candidates is the iterator form of Reconstruct for hot receive
// paths: the caller drives the candidate loop and the MAC check
// itself, so nothing escapes to the heap — a rejected PDU costs zero
// allocations. Usage:
//
//	it := f.Candidates(trunc)
//	for it.Next() {
//	    if macMatches(it.Value()) {
//	        it.Commit()
//	        ...
//	    }
//	}
//
// The iteration order and window/wrap semantics are exactly those of
// Reconstruct (which is implemented on top of this).
type Candidates struct {
	f    *Freshness
	cur  uint64 // the candidate Next returned last
	next uint64 // the candidate Next returns next, while more is true
	step uint64 // Mask()+1: matching values are step apart (0 at 64 bits)
	end  uint64 // last+Window, inclusive
	more bool
}

// Candidates returns an iterator over the full values in
// (last, last+Window] whose low Bits equal trunc, smallest first. The
// first candidate is computed here and each further one in Next, both
// in O(1) whatever the window size.
func (f *Freshness) Candidates(trunc uint64) Candidates {
	mask := f.Mask()
	c := Candidates{f: f, step: mask + 1, end: f.last + f.Window}
	if c.end <= f.last {
		return c // an empty or wrapped window
	}
	base := f.last + 1
	c.next = base&^mask | trunc&mask
	if c.next < base {
		// The match in base's residue block is stale; take the next
		// block's, unless that passes 2^64.
		n := c.next + c.step
		if n <= c.next {
			return c
		}
		c.next = n
	}
	c.more = c.next <= c.end
	return c
}

// Next advances to the next matching candidate, reporting whether one
// exists.
func (c *Candidates) Next() bool {
	if !c.more {
		return false
	}
	c.cur = c.next
	c.next += c.step
	c.more = c.next > c.cur && c.next <= c.end
	return true
}

// Value returns the current candidate. Valid only after Next returned
// true.
func (c *Candidates) Value() uint64 { return c.cur }

// Commit records the current candidate as the authenticated freshness
// value. Call once, after the caller's MAC check accepted it.
func (c *Candidates) Commit() { c.f.last = c.cur }

// Last returns the last authenticated full freshness value.
func (f *Freshness) Last() uint64 { return f.last }
