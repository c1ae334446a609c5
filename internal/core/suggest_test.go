package core

import (
	"strings"
	"testing"

	"autosec/internal/ext"
)

// lookupSuggestions returns the did-you-mean ids of lookup's error for
// an unknown id, nearest first.
func lookupSuggestions(t *testing.T, id string) []string {
	t.Helper()
	_, err := lookup(id)
	if err == nil {
		t.Fatalf("lookup(%q) resolved an unknown id", id)
	}
	msg := err.Error()
	start := strings.Index(msg, "(did you mean ")
	if start < 0 {
		return nil
	}
	list := msg[start+len("(did you mean "):]
	return strings.Split(list[:strings.Index(list, "?)")], ", ")
}

func TestSuggestExperiments(t *testing.T) {
	cases := []struct {
		id    string
		first string // expected top suggestion
	}{
		{"fig88", "fig8"},
		{"ifg8", "fig8"},
		{"exp-pt", "exp-ptp"},
		{"exp-tara2", "exp-tara"},
		{"ablate-macs", "ablate-mac"},
		{"exp", "exp-ca"}, // prefix match: first exp-* in registry order
	}
	for _, c := range cases {
		got := lookupSuggestions(t, c.id)
		if len(got) == 0 || got[0] != c.first {
			t.Errorf("lookup(%q) suggests %v, want first %q", c.id, got, c.first)
		}
		if len(got) > 3 {
			t.Errorf("lookup(%q) suggests %d ids, max is 3", c.id, len(got))
		}
	}
}

func TestSuggestExperimentsGarbageYieldsNothing(t *testing.T) {
	// A wildly wrong id must not produce noise suggestions.
	if got := lookupSuggestions(t, "zzzzzzzzzzzzzzzz"); len(got) != 0 {
		t.Errorf("lookup(garbage) suggests %v, want none", got)
	}
}

func TestUnknownExperimentError(t *testing.T) {
	_, err := RunExperimentResult("fig88", 42, RunOptions{Pool: testPool})
	if err == nil {
		t.Fatal("unknown id must fail")
	}
	msg := err.Error()
	for _, want := range []string{`unknown experiment "fig88"`, "did you mean", "fig8", "avsec list"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not contain %q", msg, want)
		}
	}
	if _, err := RunExperimentResult("fig88", 42, RunOptions{}); err == nil {
		t.Fatal("RunExperimentResult with unknown id must fail")
	}
}

func TestSuggestIDsMergedNamespace(t *testing.T) {
	// lookup and scenario.Namespace feed ext.SuggestNames experiment
	// ids, the latter the union of registry and scenario ids;
	// nearest-first ordering and the noise cutoff must hold over any
	// candidate slice, not just the registry.
	ids := []string{"fig8", "scn-replay-probe", "scn-forge-edge"}
	if got := ext.SuggestNames("scn-replay-prob", ids, 3); len(got) == 0 || got[0] != "scn-replay-probe" {
		t.Errorf("SuggestNames scenario typo = %v, want scn-replay-probe first", got)
	}
	if got := ext.SuggestNames("fig9", ids, 3); len(got) == 0 || got[0] != "fig8" {
		t.Errorf("SuggestNames(fig9) = %v, want fig8 first", got)
	}
	// Prefix matches surface even past the distance cutoff.
	if got := ext.SuggestNames("scn-", ids, 3); len(got) != 2 {
		t.Errorf("SuggestNames(prefix scn-) = %v, want both scenario ids", got)
	}
	if got := ext.SuggestNames("zzzzzzzzzzzz", ids, 3); len(got) != 0 {
		t.Errorf("SuggestNames(garbage) = %v, want none", got)
	}
}
