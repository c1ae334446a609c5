package pkes_test

import (
	"fmt"
	"log"

	"autosec/internal/pkes"
	"autosec/internal/sim"
)

// Example reproduces the §II-A motivation: the same relay rig that
// steals a car with legacy RSSI-based keyless entry is useless against
// UWB time-of-flight ranging and distance bounding, even though the
// data-layer cryptography is identical and verifies in all three cases.
func Example() {
	key := []byte("pkes-example-key")
	relay := &pkes.Relay{LinkDelayNs: 400} // ~80 m of extra cable/RF path

	fmt.Println("thief's relay rig: one antenna at the car, one near the owner's house,")
	fmt.Println("fob is 80 m away; unlock policy: fob within 2 m")
	fmt.Println()

	for _, sys := range []pkes.System{pkes.LegacyRSSI, pkes.UWBSecureHRP, pkes.UWBLRPBounding} {
		vehicle, fob, err := pkes.NewPair(sys, key, 2.0, sim.NewRNG(1))
		if err != nil {
			log.Fatal(err)
		}
		// Sanity: the owner can still unlock normally.
		near, err := vehicle.Attempt(fob, pkes.Scenario{FobDistanceM: 1.0})
		if err != nil {
			log.Fatal(err)
		}
		// The attack.
		attack, err := vehicle.Attempt(fob, pkes.Scenario{FobDistanceM: 80, Relay: relay})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "CAR STOLEN"
		if !attack.Unlocked {
			verdict = "attack defeated"
		}
		fmt.Printf("%-18s owner-unlock=%v  relay: identity-verified=%v measured=%.1fm unlocked=%v → %s\n",
			sys, near.Unlocked, attack.IdentityVerified, attack.MeasuredDistanceM, attack.Unlocked, verdict)
		if attack.Reason != "" {
			fmt.Printf("%-18s reason: %s\n", "", attack.Reason)
		}
	}

	fmt.Println("\nthe crypto never failed — proximity is a physical-layer property, which is the paper's point.")
	// Output:
	// thief's relay rig: one antenna at the car, one near the owner's house,
	// fob is 80 m away; unlock policy: fob within 2 m
	//
	// legacy-rssi        owner-unlock=true  relay: identity-verified=true measured=1.0m unlocked=true → CAR STOLEN
	//                    reason: rssi proximity satisfied via relay
	// uwb-hrp-secure     owner-unlock=true  relay: identity-verified=true measured=200.0m unlocked=false → attack defeated
	//                    reason: fob too far (200.0 m measured)
	// uwb-lrp-bounding   owner-unlock=true  relay: identity-verified=true measured=1.0m unlocked=false → attack defeated
	//                    reason: distance bounding rejected (6 bit errors)
	//
	// the crypto never failed — proximity is a physical-layer property, which is the paper's point.
}
