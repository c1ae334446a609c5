package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"autosec/internal/core"
	"autosec/internal/sim"
)

// writeSpec materialises one spec as dir/<name>/scenario.ini.
func writeSpec(t *testing.T, dir string, sp *Spec) {
	t.Helper()
	folder := filepath.Join(dir, sp.Name)
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, SpecFile), sp.MarshalINI(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNamespaceLookupResolvesScenarios: scn-* ids resolve from the
// corpus dir through the same lookup registry experiments use.
func TestNamespaceLookupResolvesScenarios(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, DefaultSpec("replay-probe"))
	ns, err := LoadNamespace(dir)
	if err != nil {
		t.Fatal(err)
	}

	e, err := ns.Lookup("scn-replay-probe")
	if err != nil {
		t.Fatalf("scenario id did not resolve: %v", err)
	}
	if e.Source != "scenario" {
		t.Errorf("Source = %q, want scenario", e.Source)
	}
	if _, err := ns.Lookup("fig8"); err != nil {
		t.Errorf("registry id stopped resolving: %v", err)
	}
	missing, err := LoadNamespace(filepath.Join(dir, "missing"))
	if err != nil {
		t.Fatalf("missing scenarios dir must load the registry alone: %v", err)
	}
	if _, err := missing.Lookup("fig8"); err != nil {
		t.Errorf("missing scenarios dir must not break registry lookup: %v", err)
	}
}

// TestNamespaceUnknownIDSuggestsScenarioNames: a typoed scenario id gets
// a did-you-mean pointing at the corpus, alongside the registry
// suggestions.
func TestNamespaceUnknownIDSuggestsScenarioNames(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, DefaultSpec("replay-probe"))
	ns, err := LoadNamespace(dir)
	if err != nil {
		t.Fatal(err)
	}

	_, err = ns.Lookup("scn-replay-prob")
	if err == nil {
		t.Fatal("typoed scenario id must fail")
	}
	msg := err.Error()
	for _, want := range []string{`unknown experiment "scn-replay-prob"`, "did you mean", "scn-replay-probe", "avsec list", "avsec scenarios"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not contain %q", msg, want)
		}
	}

	// Registry typos still suggest registry ids with scenarios loaded.
	_, err = ns.Lookup("fig88")
	if err == nil || !strings.Contains(err.Error(), "did you mean fig8") {
		t.Errorf("registry typo lost its suggestion: %v", err)
	}
}

// TestNamespaceSelect pins grid selection: explicit ids win and are
// validated, the default grid is the registry in paper order, and
// corpus=true picks the scenarios in name order — or fails on a
// namespace without any.
func TestNamespaceSelect(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, DefaultSpec("beta"))
	writeSpec(t, dir, DefaultSpec("alpha"))
	ns, err := LoadNamespace(dir)
	if err != nil {
		t.Fatal(err)
	}

	ids, err := ns.Select(nil, false)
	if err != nil || len(ids) != len(core.Experiments()) || ids[0] != "fig1" {
		t.Errorf("default grid = %v, %v; want the registry in paper order", ids, err)
	}
	if ids, err := ns.Select(nil, true); err != nil || strings.Join(ids, ",") != "scn-alpha,scn-beta" {
		t.Errorf("corpus grid = %v, %v; want scn-alpha,scn-beta", ids, err)
	}
	if ids, err := ns.Select([]string{"scn-beta", "fig3"}, true); err != nil || strings.Join(ids, ",") != "scn-beta,fig3" {
		t.Errorf("explicit grid = %v, %v; want the ids as given", ids, err)
	}
	if _, err := ns.Select([]string{"fig3", "scn-alhpa"}, false); err == nil || !strings.Contains(err.Error(), "scn-alpha") {
		t.Errorf("unknown explicit id: %v, want a suggestion of scn-alpha", err)
	}

	registryOnly, err := LoadNamespace("")
	if err != nil {
		t.Fatal(err)
	}
	if len(registryOnly.Specs()) != 0 || len(registryOnly.Registry()) != len(core.Experiments()) {
		t.Errorf("empty dir loaded %d specs and %d registry experiments", len(registryOnly.Specs()), len(registryOnly.Registry()))
	}
	if _, err := registryOnly.Select(nil, true); err == nil || !strings.Contains(err.Error(), "no scenarios") {
		t.Errorf("empty corpus selection: %v, want a no-scenarios error", err)
	}
}

// TestNamespaceRunMatchesDirectRun: the namespace's run dispatch, its
// typed form, cost and fingerprint agree with the registry and the
// compiled spec they front.
func TestNamespaceRunMatchesDirectRun(t *testing.T) {
	dir := t.TempDir()
	sp := DefaultSpec("alpha")
	writeSpec(t, dir, sp)
	ns, err := LoadNamespace(dir)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	fig3 := core.Experiments()[2]
	for _, e := range []core.Experiment{fig3, alpha} {
		want, err := core.RunResultOf(e, 7, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ns.Run(e.ID, 7, core.RunOptions{})
		if err != nil || got.Report != want.Report || !sim.MetricsEqual(got.Metrics, want.Metrics) {
			t.Errorf("%s: Run differs from core.RunResultOf (err %v)", e.ID, err)
		}
		report, metrics, err := ns.Typed(sim.NewWorkerPool(2))(e.ID, 7)
		if err != nil || report != want.Report || !sim.MetricsEqual(metrics, want.Metrics) {
			t.Errorf("%s: Typed differs from core.RunResultOf (err %v)", e.ID, err)
		}
		if ns.Cost(e.ID) != e.Cost {
			t.Errorf("%s: Cost = %d, want %d", e.ID, ns.Cost(e.ID), e.Cost)
		}
	}
	if _, err := ns.Run("fig88", 7, core.RunOptions{}); err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Errorf("Run of an unknown id: %v", err)
	}
	if fp := ns.Fingerprint(alpha.ID); fp == "" || fp != sp.Fingerprint() {
		t.Errorf("scenario fingerprint %q, want %q", fp, sp.Fingerprint())
	}
	if fp := ns.Fingerprint("fig3"); fp != "" {
		t.Errorf("registry fingerprint %q, want empty", fp)
	}
}

// TestNamespaceFingerprintLazyConcurrent pins the lazy fingerprint:
// concurrent first calls (run under -race) all return the spec's own
// fingerprint for every corpus id, and "" for registry and unknown ids.
func TestNamespaceFingerprintLazyConcurrent(t *testing.T) {
	ns, err := LoadNamespace("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	specs := ns.Specs()
	if len(specs) == 0 {
		t.Fatal("no corpus specs loaded")
	}
	want := make(map[string]string, len(specs))
	for _, sp := range specs {
		want[IDPrefix+sp.Name] = sp.Fingerprint()
	}
	want["fig3"], want["scn-no-such-spec"] = "", ""
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id, fp := range want {
				if got := ns.Fingerprint(id); got != fp {
					t.Errorf("Fingerprint(%s) = %q, want %q", id, got, fp)
				}
			}
		}()
	}
	wg.Wait()
}
