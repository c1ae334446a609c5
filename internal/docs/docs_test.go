package docs

import (
	"fmt"
	"strings"
	"testing"

	"autosec/internal/core"
)

// collect runs every registry experiment once at seed 42 and returns
// the metrics map the generator consumes — the same path `avsec expmd`
// takes.
func collect(t *testing.T) Metrics {
	t.Helper()
	metrics := make(Metrics)
	for _, e := range core.Experiments() {
		r, err := core.RunExperimentResult(e.ID, 42, core.RunOptions{})
		if err != nil {
			t.Fatalf("run %s: %v", e.ID, err)
		}
		m := make(map[string]float64, len(r.Metrics))
		for _, mt := range r.Metrics {
			m[mt.Name] = mt.Value
		}
		metrics[e.ID] = m
	}
	return metrics
}

func TestExperimentsMarkdownCoversRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	out, err := ExperimentsMarkdown(collect(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range core.Experiments() {
		heading := fmt.Sprintf("%s — %s (%s)", e.ID, e.Title, e.Source)
		single := strings.Contains(out, "## "+heading)
		mentioned := strings.Contains(out, e.ID)
		if !single && !mentioned {
			t.Errorf("generated document never mentions experiment %s", e.ID)
		}
	}
	if strings.Contains(out, "{{m:") {
		t.Errorf("generated document contains an unresolved placeholder")
	}
	if strings.Contains(out, "<!-- section:") {
		t.Errorf("generated document leaks a section marker")
	}
	if !strings.Contains(out, "go run ./cmd/avsec expmd > EXPERIMENTS.md") {
		t.Errorf("generated document does not record its regeneration command")
	}
}

func TestExperimentsMarkdownDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	m := collect(t)
	a, err := ExperimentsMarkdown(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExperimentsMarkdown(m)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two generations from the same metrics differ")
	}
}

func TestExperimentsMarkdownRejectsUnknownMetric(t *testing.T) {
	// Empty metrics: the first placeholder the template interpolates
	// must produce a hard error, not silently render "{{m:...}}".
	_, err := ExperimentsMarkdown(Metrics{})
	if err == nil {
		t.Fatal("expected an error for a template placeholder with no matching metric")
	}
	if !strings.Contains(err.Error(), "publishes no metric") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSubstituteCountForm(t *testing.T) {
	byID := map[string]core.Experiment{"x": {ID: "x"}}
	m := Metrics{"x": {"r": 19.0 / 30, "half": 0.5}}
	got, err := substitute("{{m:r|of 30}} and {{m:x:half|of 4}}", "x", byID, m)
	if err != nil || got != "19/30 and 2/4" {
		t.Fatalf("got %q, %v; want \"19/30 and 2/4\"", got, err)
	}
	for _, bad := range []string{"{{m:r|of 4}}", "{{m:r|of x}}", "{{m:r|of 0}}"} {
		if _, err := substitute(bad, "x", byID, m); err == nil || !strings.Contains(err.Error(), "not a count") {
			t.Errorf("%s: got error %v, want a not-a-count error", bad, err)
		}
	}
}
