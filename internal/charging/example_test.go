package charging_test

import (
	"fmt"
	"log"

	"autosec/internal/charging"
	"autosec/internal/ssi"
)

func key(b byte) *ssi.KeyPair {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	k, err := ssi.GenerateKeyPair(s)
	if err != nil {
		log.Fatal(err)
	}
	return k
}

// Example walks through the §IV-C use case: an EV authorizes a charging
// session against a charge point using (a) an ISO-15118-style
// certificate chain and (b) an SSI verifiable credential, including the
// roaming-cost comparison and the offline scenario where the station
// has no backend connectivity.
func Example() {
	// --- design A: hierarchical PKI (ISO 15118 style) ---
	root := charging.NewRootCA("v2g-root", key(1), 100000)
	emspCA := root.IssueSubCA("emsp-green-energy", key(2), 50000)
	carKey := key(3)
	contractCert := emspCA.IssueLeaf("contract-0x42", carKey, 20000)

	pkiStation := &charging.Station{
		ID: "cp-highway-12", Mode: charging.PKIMode,
		Roots: map[string]*charging.Certificate{"v2g-root": root.Cert},
	}
	err := pkiStation.AuthorizePKI(&charging.PKIRequest{
		Contract:      contractCert,
		Intermediates: []*charging.Certificate{emspCA.Cert},
		Key:           carKey,
	}, 1000)
	fmt.Printf("PKI flow: authorized=%v (chain contract → eMSP sub-CA → V2G root)\n", err == nil)

	// --- design B: SSI verifiable credential ---
	emsp := key(4)
	car := key(5)
	reg := ssi.NewRegistry()
	for _, k := range []*ssi.KeyPair{emsp, car} {
		if err := reg.Register(ssi.NewDocument(k)); err != nil {
			log.Fatal(err)
		}
	}
	trust := ssi.NewTrustRegistry()
	trust.AddAnchor(charging.ContractCredentialType, emsp.DID)
	verifier := ssi.NewVerifier(reg, trust)

	contract, err := ssi.Issue(emsp, &ssi.Credential{
		ID: "contract-ssi-7", Type: charging.ContractCredentialType,
		Issuer: emsp.DID, Subject: car.DID,
		Claims: map[string]string{"tariff": "green-night"}, IssuedAt: 0, ExpiresAt: 100000,
	})
	if err != nil {
		log.Fatal(err)
	}

	ssiStation := &charging.Station{ID: "cp-city-3", Mode: charging.SSIMode, Verifier: verifier}
	receipt, err := ssiStation.AuthorizeSSI(car, contract, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSI flow: authorized=true, billing receipt for %.1f kWh verifies=%v\n",
		receipt.EnergyKWh, charging.VerifyReceipt(receipt, reg) == nil)

	// --- offline: the station loses its uplink ---
	bundle, err := ssi.NewOfflineBundle(verifier, []*ssi.Credential{contract}, 1000, 86400)
	if err != nil {
		log.Fatal(err)
	}
	offlineStation := &charging.Station{ID: "cp-rural-9", Mode: charging.SSIMode, Offline: bundle}
	_, err = offlineStation.AuthorizeSSI(car, contract, 2000)
	fmt.Printf("offline SSI authorization (no backend): authorized=%v\n", err == nil)

	// --- the roaming interoperability argument ---
	fmt.Println("\nroaming setup actions for N CPOs × M eMSPs:")
	for _, n := range []int{5, 20, 100} {
		fmt.Printf("  N=M=%-4d PKI(cross-load roots)=%-6d SSI(registry anchors)=%d\n",
			n, charging.RoamingSetupSteps(charging.PKIMode, n, n),
			charging.RoamingSetupSteps(charging.SSIMode, n, n))
	}
	// Output:
	// PKI flow: authorized=true (chain contract → eMSP sub-CA → V2G root)
	// SSI flow: authorized=true, billing receipt for 42.0 kWh verifies=true
	// offline SSI authorization (no backend): authorized=true
	//
	// roaming setup actions for N CPOs × M eMSPs:
	//   N=M=5    PKI(cross-load roots)=25     SSI(registry anchors)=10
	//   N=M=20   PKI(cross-load roots)=400    SSI(registry anchors)=40
	//   N=M=100  PKI(cross-load roots)=10000  SSI(registry anchors)=200
}
