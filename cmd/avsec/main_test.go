package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"autosec/internal/campaign"
	"autosec/internal/scenario"
	"autosec/internal/sim"
)

// writeScenario materialises one spec as dir/<name>/scenario.ini.
func writeScenario(t *testing.T, dir string, sp *scenario.Spec) {
	t.Helper()
	folder := filepath.Join(dir, sp.Name)
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, scenario.SpecFile), sp.MarshalINI(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignScenarioCellsJobsInvariant pins the corpus-golden
// contract at the aggregation layer: a campaign over scenario cells
// renders byte-identical summaries at -jobs 1 and -jobs 4.
func TestCampaignScenarioCellsJobsInvariant(t *testing.T) {
	dir := t.TempDir()
	for _, typ := range []string{scenario.AttackReplay, scenario.AttackFlood, scenario.AttackKillChain} {
		sp := scenario.DefaultSpec("cell-" + typ)
		sp.Attacker.Type = typ
		sp.Title = scenario.AutoTitle(sp)
		writeScenario(t, dir, sp)
	}
	ns, err := scenario.LoadNamespace(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := ns.Select(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	render := func(jobs int) string {
		pool := sim.NewWorkerPool(jobs)
		res, err := campaign.Run(campaign.Spec{
			IDs:      ids,
			Seeds:    campaign.Seeds(42, 2),
			Pool:     pool,
			RunTyped: ns.Typed(pool),
			CostHint: ns.Cost,
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return res.RenderSummary()
	}
	if a, b := render(1), render(4); a != b {
		t.Error("campaign summary over scenario cells differs between -jobs 1 and -jobs 4")
	}
}

// TestRunLoadsCorpusOnlyForScenarioIDs pins that `avsec run` compiles
// the -scenarios corpus only for scn- ids: a registry id runs beside a
// malformed spec, and a scenario id still reports its parse error. A
// run that fails after -cpuprofile started still leaves a complete
// (gzip-compressed) profile. Each command runs in a child copy of this
// test binary, which takes the avsec command line after "--".
func TestRunLoadsCorpusOnlyForScenarioIDs(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "run" {
		runOne(args[1:])
		os.Exit(0)
	}
	dir := t.TempDir()
	folder := filepath.Join(dir, "broken")
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, scenario.SpecFile), []byte("[attacker\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(id string, flags ...string) (string, error) {
		args := append([]string{"-test.run=^TestRunLoadsCorpusOnlyForScenarioIDs$", "--", "run", "-scenarios", dir}, flags...)
		out, err := exec.Command(os.Args[0], append(args, id)...).CombinedOutput()
		return string(out), err
	}
	if out, err := run("fig2"); err != nil || !strings.Contains(out, "Fig. 2") {
		t.Errorf("avsec run fig2 beside a malformed corpus: %v\n%s", err, out)
	}
	const parseErr = `unterminated section header "[attacker"`
	if out, err := run("scn-broken"); err == nil || !strings.Contains(out, parseErr) {
		t.Errorf("avsec run scn-broken: err %v, output %q; want exit 1 with %s", err, out, parseErr)
	}
	prof := filepath.Join(dir, "cpu.pprof")
	if _, err := run("scn-broken", "-cpuprofile", prof); err == nil {
		t.Error("avsec run scn-broken -cpuprofile succeeded")
	}
	if b, err := os.ReadFile(prof); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("CPU profile of a failed run is not a gzip stream (%d bytes, err %v)", len(b), err)
	}
}

// TestCorpusGoldens renders `avsec campaign -corpus -seeds 2 -seed 42`
// in-process for each committed scenario corpus, at -jobs 1 and 2, and
// compares the summary, which is what the command prints, with the
// corpus's golden file byte for byte.
func TestCorpusGoldens(t *testing.T) {
	for _, dir := range []string{"../../scenarios", "../../internal/ext/demo/scenario"} {
		want, err := os.ReadFile(filepath.Join(dir, "GOLDEN.campaign.txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []string{"1", "2"} {
			got, err := campaignSummary("-corpus", "-scenarios", dir, "-seeds", "2", "-seed", "42", "-jobs", jobs)
			if err != nil {
				t.Fatalf("%s at -jobs %s: %v", dir, jobs, err)
			}
			if got != string(want) {
				t.Errorf("%s at -jobs %s differs from its golden: %s", dir, jobs, firstDiffLine(string(want), got))
			}
		}
	}
}

// TestCommandGoldens runs the other byte-pinned commands in-process
// through their CLI entry points and compares each output with its
// committed file byte for byte: the registry golden (`campaign -seeds 4
// -recheck 0.25` at -jobs 1 and 2), experiments_output.txt (`all -seed
// 42`), EXPERIMENTS.md (`expmd`), and the scenario corpus (`gen
// -check`).
func TestCommandGoldens(t *testing.T) {
	registry := func(jobs string) func(io.Writer) error {
		return func(w io.Writer) error {
			out, err := campaignSummary("-scenarios", "../../scenarios", "-seeds", "4", "-recheck", "0.25", "-jobs", jobs)
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, out)
			return err
		}
	}
	cases := []struct {
		name, golden string
		render       func(io.Writer) error
	}{
		{"campaign/jobs=1", "../../internal/core/testdata/GOLDEN.campaign.txt", registry("1")},
		{"campaign/jobs=2", "../../internal/core/testdata/GOLDEN.campaign.txt", registry("2")},
		{"all", "../../experiments_output.txt", func(w io.Writer) error {
			return runAll(w, []string{"-seed", "42", "-jobs", "2"})
		}},
		{"expmd", "../../EXPERIMENTS.md", runExpmd},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			if err := c.render(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("output differs from %s: %s", c.golden, firstDiffLine(string(want), got.String()))
			}
		})
	}
	t.Run("gen-check", func(t *testing.T) {
		if err := runGen([]string{"-check", "-out", "../../scenarios"}); err != nil {
			t.Fatal(err)
		}
	})
}

// campaignSummary runs `avsec campaign args` in-process and returns
// what the command prints on success.
func campaignSummary(args ...string) (string, error) {
	spec, _, _ := parseCampaign(args)
	res, err := campaign.Run(spec)
	if err != nil {
		return "", err
	}
	return res.RenderSummary(), nil
}

// firstDiffLine names the first line where got departs from want.
func firstDiffLine(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl || i >= len(w) || i >= len(g) {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "no differing line"
}
