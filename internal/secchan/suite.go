package secchan

import "autosec/internal/sim"

// Properties are the comparison axes of the paper's Table I: what a
// protocol guarantees per protected message.
type Properties struct {
	Auth   bool // authenticity + integrity
	Conf   bool // confidentiality
	Replay bool // replay protection
}

// YesNo renders the three axes the way Table I prints them.
func (p Properties) YesNo() (auth, conf, replay string) {
	return yn(p.Auth), yn(p.Conf), yn(p.Replay)
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Suite is one protected channel between a sending and a receiving
// endpoint, viewed generically: bytes in, protected bytes out, and
// back. Each Table I protocol provides an adapter (package
// secchan/suites); the experiment harness compares them without
// knowing any wire format. A suite's Table I metadata lives on its
// registry Entry, and its byte overhead is measured from the wire.
//
// Suites are not safe for concurrent use — like the protocol endpoints
// they wrap, each belongs to one simulated task.
type Suite interface {
	// Protect wraps an application payload into its protected wire
	// form, consuming one freshness value / sequence number.
	Protect(payload []byte) ([]byte, error)
	// Verify checks a protected wire message and returns the
	// authenticated payload; replayed, stale, or forged input errors.
	Verify(wire []byte) ([]byte, error)
}

// Params parameterises suite construction. Key is required; the
// remaining fields have suite-specific defaults.
type Params struct {
	// Key is the 16-byte pre-shared/root key material the suite keys
	// itself from.
	Key []byte
	// RNG is consumed only by suites with a randomised handshake
	// ((D)TLS nonces); pass the experiment's root RNG so draws land in
	// the deterministic stream.
	RNG *sim.RNG
	// MACBits overrides the SECOC MAC truncation (0 = profile
	// default). Ignored by suites with fixed-size tags.
	MACBits int
}

// Entry describes one registered suite: the Table I metadata plus a
// constructor. Entries carry the paper mapping so docs and experiment
// tables render from the registry rather than hand-kept lists.
// Adding a protocol to the comparison means registering one Entry
// (see secchan/suites).
type Entry struct {
	// Name is the Table I protocol name, e.g. "SECOC" or "IPsec ESP".
	Name string
	// Layer is the ISO-OSI layer label as Table I prints it, e.g.
	// "2 data link".
	Layer string
	// Media names the transmission media the protocol protects.
	Media string
	// Paper cites the paper artefact the suite reproduces (Table I
	// row, section reference).
	Paper string
	Props Properties
	New   func(Params) (Suite, error)
}
