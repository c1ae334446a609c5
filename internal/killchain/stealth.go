package killchain

import (
	"fmt"

	"autosec/internal/telemetry"
)

// This file operationalizes §V-B's first takeaway — "lack of incidents
// is not an indication of security": the same data theft, performed
// noisily or patiently, against a cloud with monitoring enabled. The
// noisy variant trips every alarm; the patient variant exfiltrates the
// same fleet without raising one.

// ExfilStrategy selects how the attacker extracts data once it holds
// the master credential.
type ExfilStrategy int

const (
	// BulkExfil mints one fleet-scope token and pulls everything at
	// once — the fast, loud approach.
	BulkExfil ExfilStrategy = iota
	// LowAndSlow mints per-VIN tokens, spaced in time below the
	// monitoring thresholds, and drains the fleet vehicle by vehicle.
	LowAndSlow
)

func (s ExfilStrategy) String() string {
	if s == BulkExfil {
		return "bulk"
	}
	return "low-and-slow"
}

// StealthReport is the outcome of a monitored exfiltration.
type StealthReport struct {
	Strategy           ExfilStrategy
	RecordsExfiltrated int
	VehiclesAffected   int
	// Detected reports whether the cloud's monitor raised anything.
	Detected bool
	Alerts   []string
	// StepsTaken is the logical time the attack consumed (patience has
	// a cost).
	StepsTaken int
}

// RunStealthExfil performs the data-extraction stage under monitoring.
// It presumes the credential theft already succeeded (the Fig. 8 chain
// through stage 5); the master key here is the one the heap dump leaks.
func RunStealthExfil(cloud *telemetry.Cloud, strategy ExfilStrategy) (*StealthReport, error) {
	const masterKey = "AKIA-MASTER-0xFLEET"
	rep := &StealthReport{Strategy: strategy}
	startStep := stepNow(cloud)

	switch strategy {
	case BulkExfil:
		tok, err := cloud.MintToken(masterKey, "")
		if err != nil {
			return nil, fmt.Errorf("killchain: bulk mint: %w", err)
		}
		recs, err := cloud.Fetch(tok)
		if err != nil {
			return nil, err
		}
		rep.RecordsExfiltrated = recs.Len()
		rep.VehiclesAffected = recs.Vehicles()
	case LowAndSlow:
		// Per-VIN tokens, each mint separated by more than the
		// monitor's rate window; each fetch is one vehicle's worth —
		// far below any volume alarm.
		for _, vin := range cloud.VINs() {
			tok, err := cloud.MintToken(masterKey, vin)
			if err != nil {
				return nil, fmt.Errorf("killchain: mint for %s: %w", vin, err)
			}
			recs, err := cloud.Fetch(tok)
			if err != nil {
				return nil, err
			}
			rep.RecordsExfiltrated += recs.Len()
			rep.VehiclesAffected += recs.Vehicles()
			cloud.AdvanceTime(150) // patience: stay under the rate window
		}
	default:
		return nil, fmt.Errorf("killchain: unknown strategy %d", int(strategy))
	}

	if m := cloud.Monitor(); m != nil {
		rep.Detected = m.Detected()
		rep.Alerts = append(rep.Alerts, m.Alerts()...)
	}
	rep.StepsTaken = stepNow(cloud) - startStep
	return rep, nil
}

// stepNow reads the cloud's logical clock via its event log length plus
// advanced idle time; the Events slice carries the last step.
func stepNow(cloud *telemetry.Cloud) int {
	evs := cloud.Events()
	if len(evs) == 0 {
		return 0
	}
	return evs[len(evs)-1].Step
}
