package killchain

import (
	"strings"
	"testing"

	"autosec/internal/sim"
	"autosec/internal/telemetry"
)

func cloudWith(cfg telemetry.Config) *telemetry.Cloud {
	return telemetry.NewCloud(cfg, 40, 10, sim.NewRNG(7))
}

func TestFullChainSucceedsAgainstWorstCase(t *testing.T) {
	rep := Run(cloudWith(telemetry.WorstCase()))
	if !rep.Breached {
		t.Fatalf("chain failed against the incident configuration:\n%s", rep)
	}
	if rep.FailedAt() != -1 {
		t.Errorf("failed at %d", rep.FailedAt())
	}
	if rep.RecordsExfiltrated != 400 || rep.VehiclesAffected != 40 {
		t.Errorf("exfiltrated %d records / %d vehicles", rep.RecordsExfiltrated, rep.VehiclesAffected)
	}
	if !rep.PersonalData {
		t.Error("personal data flag not set")
	}
	if rep.PrecisionM != 10 {
		t.Errorf("precision %v", rep.PrecisionM)
	}
	if len(rep.Stages) != 6 {
		t.Errorf("%d stages", len(rep.Stages))
	}
}

// TestEmptyHistoryFetchFails pins the chain against a fleet with no
// stored points: the fleet token works, but the fetch yields nothing,
// so data extraction fails and no vehicle counts as affected.
func TestEmptyHistoryFetchFails(t *testing.T) {
	rep := Run(telemetry.NewCloud(telemetry.WorstCase(), 40, 0, sim.NewRNG(7)))
	if rep.Breached || rep.FailedAt() != int(DataExtraction) {
		t.Fatalf("empty fleet breached or failed elsewhere:\n%s", rep)
	}
	if last := rep.Stages[len(rep.Stages)-1]; last.Detail != "fetch failed" {
		t.Errorf("data extraction detail %q, want \"fetch failed\"", last.Detail)
	}
	if rep.RecordsExfiltrated != 0 || rep.VehiclesAffected != 0 || rep.PersonalData || rep.PrecisionM != 0 {
		t.Errorf("empty fleet report %+v", rep)
	}
}

func TestEachDefenceBreaksItsLink(t *testing.T) {
	cases := []struct {
		def        Defence
		breakStage Stage
	}{
		{DefendEnumeration, DirectoryEnumeration},
		{DisableHeapDump, HeapDump},
		{ScrubSecrets, KeyExtraction},
		{LeastPrivilege, DataExtraction},
	}
	for _, tc := range cases {
		t.Run(tc.def.String(), func(t *testing.T) {
			rep := Run(cloudWith(Apply(tc.def)))
			if rep.Breached {
				t.Fatalf("breach despite %v:\n%s", tc.def, rep)
			}
			failed := rep.Stages[len(rep.Stages)-1]
			if failed.Stage != tc.breakStage || failed.Success {
				t.Errorf("chain broke at %v, want %v", failed.Stage, tc.breakStage)
			}
		})
	}
}

func TestDataMinimizationLimitsDamage(t *testing.T) {
	// Minimization alone does not stop the breach, but the stolen data
	// is 1 km coarse — defence in depth for the data layer.
	rep := Run(cloudWith(Apply(MinimizeData)))
	if !rep.Breached {
		t.Fatal("minimization alone should not break the chain")
	}
	if rep.PrecisionM != 1000 {
		t.Errorf("stolen precision %v, want 1000", rep.PrecisionM)
	}
}

func TestAllDefencesChainBreaksEarly(t *testing.T) {
	rep := Run(cloudWith(Apply(Defences()...)))
	if rep.Breached {
		t.Fatal("breach despite all defences")
	}
	if rep.FailedAt() > 1 {
		t.Errorf("chain survived to stage %d with all defences", rep.FailedAt())
	}
}

func TestDefenceCombinationsMonotone(t *testing.T) {
	// Adding a defence never makes the outcome worse: enumerate all 16
	// combinations of the four chain-breaking defences.
	defs := []Defence{DefendEnumeration, DisableHeapDump, ScrubSecrets, LeastPrivilege}
	for mask := 0; mask < 16; mask++ {
		var applied []Defence
		for i, d := range defs {
			if mask&(1<<i) != 0 {
				applied = append(applied, d)
			}
		}
		rep := Run(cloudWith(Apply(applied...)))
		wantBreach := mask == 0
		if rep.Breached != wantBreach {
			t.Errorf("mask %04b: breached=%v, want %v", mask, rep.Breached, wantBreach)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := Run(cloudWith(telemetry.WorstCase()))
	s := rep.String()
	for _, want := range []string{"traffic-analysis", "heap-dump", "BREACH"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	broken := Run(cloudWith(Apply(DisableHeapDump)))
	if !strings.Contains(broken.String(), "chain broken") {
		t.Error("broken chain not reported")
	}
}

func TestStageAndDefenceStrings(t *testing.T) {
	if len(Stages()) != 6 || len(Defences()) != 5 {
		t.Fatal("enumeration sizes")
	}
	for _, s := range Stages() {
		if strings.HasPrefix(s.String(), "Stage(") {
			t.Errorf("missing name for stage %d", int(s))
		}
	}
	for _, d := range Defences() {
		if strings.HasPrefix(d.String(), "Defence(") {
			t.Errorf("missing name for defence %d", int(d))
		}
	}
}

// TestConfigForDefenceNames pins the scenario DSL's deployment path:
// every built-in name resolves to the same config as its Defence, and an
// unknown name errors with the full vocabulary.
func TestConfigForDefenceNames(t *testing.T) {
	for _, d := range Defences() {
		got, err := ConfigFor([]string{d.String()})
		if err != nil {
			t.Errorf("ConfigFor(%q): %v", d.String(), err)
		}
		if want := Apply(d); got != want {
			t.Errorf("ConfigFor(%q) = %+v, want %+v", d.String(), got, want)
		}
	}
	if names := DefenceNames(); len(names) != len(Defences()) {
		t.Errorf("DefenceNames has %d entries, want %d", len(names), len(Defences()))
	}
	_, err := ConfigFor([]string{"moat"})
	if err == nil {
		t.Fatal("ConfigFor accepted an unknown name")
	}
	if !strings.Contains(err.Error(), "disable-heapdump") {
		t.Errorf("error %q does not list the vocabulary", err)
	}
}
