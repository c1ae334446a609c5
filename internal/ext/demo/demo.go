// Package demo is the worked example of the extension kernel's
// "adding one is one file" property: this single file registers a
// drop-in channel suite ("noop-mac") and a drop-in attack behaviour
// ("jam"), and a binary that blank-imports the package can stage both
// from a scenario.ini by name — CLI, daemon, and fleet included.
//
// Neither registration claims the "core" or "table1" capability, so
// the canonical lists feeding the byte-pinned goldens (Table I rows,
// AttackTypes, the corpus generator's vocabulary) are unchanged by
// linking this package in.
//
// The suite is deliberately weak — an unkeyed checksum with no replay
// protection — so demo scenarios show the failure modes the real
// Table I suites exist to prevent.
package demo

import (
	"encoding/binary"
	"fmt"

	"autosec/internal/ext"
	"autosec/internal/scenario"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
)

func init() {
	suites.Suites.Register(ext.Meta{
		Name:        "noop-mac",
		Description: "drop-in demo: unkeyed FNV tag, no confidentiality, no replay window",
		Paper:       "none — extension demo (docs/EXTENSIONS.md)",
		Rank:        100,
	}, secchan.Entry{
		Name:  "noop-mac",
		Layer: "7 application",
		Media: "any",
		Paper: "none — extension demo",
		Props: secchan.Properties{Auth: true, Conf: false, Replay: false},
		New:   newNoopMAC,
	})

	scenario.Attacks.Register(ext.Meta{
		Name:        "jam",
		Description: "drop-in demo: blind RF jamming — the victim's frames never arrive",
		Paper:       "none — extension demo (docs/EXTENSIONS.md)",
		Rank:        100,
	}, scenario.AttackSpec{
		New: func(*scenario.Spec) scenario.AttackBehaviour { return jamAttack{} },
	})
}

// tagLen is the demo suite's checksum size on the wire.
const tagLen = 4

// noopMAC is the demo suite: payload ‖ FNV-1a(payload). Anyone can
// forge a valid tag and any old frame re-verifies, which is the point:
// its scenarios light up the accept/replay boundaries immediately.
type noopMAC struct{}

func newNoopMAC(secchan.Params) (secchan.Suite, error) { return noopMAC{}, nil }

func (noopMAC) Protect(payload []byte) ([]byte, error) {
	wire := make([]byte, len(payload)+tagLen)
	copy(wire, payload)
	binary.BigEndian.PutUint32(wire[len(payload):], fnv32(payload))
	return wire, nil
}

func (noopMAC) Verify(wire []byte) ([]byte, error) {
	if len(wire) < tagLen {
		return nil, fmt.Errorf("noop-mac: wire shorter than its %d-byte tag", tagLen)
	}
	payload := wire[:len(wire)-tagLen]
	if binary.BigEndian.Uint32(wire[len(payload):]) != fnv32(payload) {
		return nil, fmt.Errorf("noop-mac: checksum mismatch")
	}
	return payload, nil
}

func fnv32(data []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range data {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// jamAttack drops the victim's frame on every attacked step: the
// receiver sees nothing, and the IDS taps see one attacker
// transmission (the jamming burst) in its place.
type jamAttack struct{}

func (jamAttack) Deliver(st *scenario.TrafficStep) bool {
	st.ObserveAttacker(st.Now)
	return true
}

func (jamAttack) Inject(*scenario.TrafficStep) {}
