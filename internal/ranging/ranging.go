// Package ranging implements the protocol layer above the UWB PHY:
// double-sided two-way ranging (DS-TWR) with clock-drift modelling,
// and Brands–Chaum-style rapid-bit-exchange distance bounding with the
// classic fraud strategies. Where package uwb
// models what one radio observation can be made to say, this package
// models what a *protocol* concludes from message round trips.
//
// Exercised by experiments fig2 and ablate-sts.
package ranging

import (
	"fmt"

	"autosec/internal/uwb"
)

// NsPerMetre is the one-way propagation time for one metre.
const NsPerMetre = 1 / uwb.SpeedOfLight

// Clock models a device oscillator: reading a true time t yields
// t·(1+DriftPPM·1e-6). Offsets cancel in round-trip protocols, so only
// drift matters for TWR error.
type Clock struct {
	DriftPPM float64
}

// Elapsed converts a true duration in ns to what this clock measures.
func (c Clock) Elapsed(trueNs float64) float64 {
	return trueNs * (1 + c.DriftPPM*1e-6)
}

// TWRConfig describes a two-way ranging exchange between an initiator
// (e.g. the vehicle) and a responder (e.g. the key fob).
type TWRConfig struct {
	DistanceM    float64
	ReplyDelayNs float64 // responder processing time between RX and TX
	Initiator    Clock
	Responder    Clock
	// ExtraPathNs is attacker-induced additional one-way delay (a relay
	// inserts cable/processing latency; it can never be negative —
	// signals do not travel faster than light).
	ExtraPathNs float64
}

func (c *TWRConfig) validate() error {
	if c.DistanceM < 0 {
		return fmt.Errorf("ranging: negative distance %f", c.DistanceM)
	}
	if c.ExtraPathNs < 0 {
		return fmt.Errorf("ranging: relay cannot remove propagation delay (ExtraPathNs=%f)", c.ExtraPathNs)
	}
	return nil
}

// DSTWR performs double-sided two-way ranging (two round trips, one
// initiated by each side), which cancels first-order clock drift:
// tof ≈ (Ra·Rb − Da·Db) / (Ra + Rb + Da + Db).
func DSTWR(cfg TWRConfig) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	tof := cfg.DistanceM*NsPerMetre + cfg.ExtraPathNs
	// Round A: initiator → responder → initiator.
	ra := cfg.Initiator.Elapsed(2*tof + cfg.ReplyDelayNs)
	da := cfg.Responder.Elapsed(cfg.ReplyDelayNs)
	// Round B: responder → initiator → responder.
	rb := cfg.Responder.Elapsed(2*tof + cfg.ReplyDelayNs)
	db := cfg.Initiator.Elapsed(cfg.ReplyDelayNs)
	est := (ra*rb - da*db) / (ra + rb + da + db)
	return est / NsPerMetre, nil
}
