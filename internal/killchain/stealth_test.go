package killchain

import (
	"testing"

	"autosec/internal/sim"
	"autosec/internal/telemetry"
)

func monitoredCloud(t *testing.T) *telemetry.Cloud {
	t.Helper()
	cloud := telemetry.NewCloud(telemetry.WorstCase(), 60, 10, sim.NewRNG(3))
	cloud.AttachMonitor(telemetry.DefaultMonitor())
	return cloud
}

func TestBulkExfilDetected(t *testing.T) {
	cloud := monitoredCloud(t)
	rep, err := RunStealthExfil(cloud, BulkExfil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsExfiltrated != 600 || rep.VehiclesAffected != 60 {
		t.Errorf("exfiltrated %d records / %d vehicles", rep.RecordsExfiltrated, rep.VehiclesAffected)
	}
	if !rep.Detected {
		t.Error("bulk exfiltration not detected by monitoring")
	}
	// Both the fleet-scope mint and the bulk fetch should alarm.
	if len(rep.Alerts) < 2 {
		t.Errorf("alerts: %v", rep.Alerts)
	}
}

func TestLowAndSlowEvadesDetection(t *testing.T) {
	cloud := monitoredCloud(t)
	rep, err := RunStealthExfil(cloud, LowAndSlow)
	if err != nil {
		t.Fatal(err)
	}
	// The same data is gone...
	if rep.RecordsExfiltrated != 600 || rep.VehiclesAffected != 60 {
		t.Errorf("exfiltrated %d records / %d vehicles", rep.RecordsExfiltrated, rep.VehiclesAffected)
	}
	// ...without a single alert: §V-B takeaway 1 made concrete.
	if rep.Detected {
		t.Errorf("patient exfiltration detected: %v", rep.Alerts)
	}
	// Patience costs time.
	if rep.StepsTaken <= 60 {
		t.Errorf("low-and-slow finished in %d steps; should be spread out", rep.StepsTaken)
	}
}

func TestLowAndSlowWithoutPatienceWouldTrip(t *testing.T) {
	// Sanity: the rate alarm is real — minting the same per-VIN tokens
	// back to back (no AdvanceTime) fires it.
	cloud := monitoredCloud(t)
	const masterKey = "AKIA-MASTER-0xFLEET"
	for _, vin := range cloud.VINs() {
		if _, err := cloud.MintToken(masterKey, vin); err != nil {
			t.Fatal(err)
		}
	}
	if !cloud.Monitor().Detected() {
		t.Error("60 rapid mints did not trip the rate alarm")
	}
}

func TestLeastPrivilegeStopsBulkButNotLowAndSlow(t *testing.T) {
	// With least privilege, fleet-scope minting fails (bulk impossible)
	// but per-VIN minting is the app's legitimate operation — the
	// patient attacker still wins. Defence in depth, not silver bullet.
	cfg := telemetry.WorstCase()
	cfg.MasterKeyOverPrivileged = false
	cloud := telemetry.NewCloud(cfg, 20, 5, sim.NewRNG(4))
	cloud.AttachMonitor(telemetry.DefaultMonitor())

	if _, err := RunStealthExfil(cloud, BulkExfil); err == nil {
		t.Error("bulk exfiltration succeeded despite least privilege")
	}
	rep, err := RunStealthExfil(cloud, LowAndSlow)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsExfiltrated != 100 {
		t.Errorf("low-and-slow under least privilege exfiltrated %d", rep.RecordsExfiltrated)
	}
}

// TestStealthEmptyHistoryAffectsNoVehicle counts vehicles the way the
// kill chain does: a vehicle with no stored point yields no data, so
// neither strategy affects it.
func TestStealthEmptyHistoryAffectsNoVehicle(t *testing.T) {
	for _, strategy := range []ExfilStrategy{BulkExfil, LowAndSlow} {
		cloud := telemetry.NewCloud(telemetry.WorstCase(), 10, 0, sim.NewRNG(6))
		rep, err := RunStealthExfil(cloud, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RecordsExfiltrated != 0 || rep.VehiclesAffected != 0 {
			t.Errorf("%s against an empty history: %d records / %d vehicles", strategy, rep.RecordsExfiltrated, rep.VehiclesAffected)
		}
	}
}

func TestUnmonitoredCloudReportsNothing(t *testing.T) {
	cloud := telemetry.NewCloud(telemetry.WorstCase(), 10, 5, sim.NewRNG(5))
	rep, err := RunStealthExfil(cloud, BulkExfil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected || len(rep.Alerts) != 0 {
		t.Error("alerts without a monitor")
	}
}

func TestStrategyString(t *testing.T) {
	if BulkExfil.String() != "bulk" || LowAndSlow.String() != "low-and-slow" {
		t.Error("strategy strings")
	}
}
