package core_test

import (
	"fmt"
	"log"

	"autosec/internal/core"
)

// ExamplePosture_CoverageByLayer builds the layered security model of
// an autonomous vehicle, deploys a partial set of defences, and asks the
// paper's central question: which cross-layer attack paths remain, and
// which deployed defences are silently ineffective because a synergy
// dependency is missing?
func ExamplePosture_CoverageByLayer() {
	catalog, err := core.DefaultCatalog()
	if err != nil {
		log.Fatal(err)
	}

	posture := core.NewPosture(catalog)
	// A typical real-world deployment: strong network crypto, a
	// hardened cloud — but no vehicle key management and nothing at the
	// physical or collaboration layers.
	if err := posture.Deploy(
		"D-secoc", "D-macsec", // network crypto ... without D-key-mgmt
		"D-no-debug", "D-secret-store", "D-least-priv", // data layer
	); err != nil {
		log.Fatal(err)
	}

	fmt.Println("coverage by layer:")
	for _, cov := range posture.CoverageByLayer() {
		fmt.Printf("  %-18s %d/%d threats mitigated\n", cov.Layer, cov.Mitigated, cov.Threats)
	}

	fmt.Println("\ndeployed but INEFFECTIVE (missing synergy dependency):")
	for _, id := range posture.IneffectiveDeployments() {
		d := catalog.Defence(id)
		fmt.Printf("  %-10s %s (requires %v)\n", d.ID, d.Name, d.Requires)
	}

	paths := posture.AttackPaths()
	fmt.Printf("\n%d attack paths to safety impact remain, for example:\n", len(paths))
	for i, p := range paths {
		if i >= 5 {
			break
		}
		fmt.Printf("  %s\n", p)
	}

	// Fix the synergy gap and re-assess.
	if err := posture.Deploy("D-key-mgmt"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter deploying key management: %d paths remain, %d defences ineffective\n",
		len(posture.AttackPaths()), len(posture.IneffectiveDeployments()))
	// Output:
	// coverage by layer:
	//   physical           0/6 threats mitigated
	//   network            0/6 threats mitigated
	//   software-platform  0/5 threats mitigated
	//   data               4/6 threats mitigated
	//   system-of-systems  0/3 threats mitigated
	//   collaboration      0/4 threats mitigated
	//
	// deployed but INEFFECTIVE (missing synergy dependency):
	//   D-macsec   MACsec / CANsec link protection (requires [D-key-mgmt])
	//   D-secoc    AUTOSAR SECOC (authenticated PDUs + freshness) (requires [D-key-mgmt])
	//
	// 19 attack paths to safety impact remain, for example:
	//   T-3rdparty → T-remote-entry → T-malware
	//   T-3rdparty → T-remote-entry → T-malware → T-masquerade → T-actuation
	//   T-3rdparty → T-remote-entry → T-masquerade → T-actuation
	//   T-bus-dos
	//   T-counterfeit-hw → T-malware
	//
	// after deploying key management: 13 paths remain, 0 defences ineffective
}
