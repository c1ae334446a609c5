// Package docs generates EXPERIMENTS.md — the paper-claim-vs-measured
// table — from the experiment registry in internal/core and the typed
// metric stream of a deterministic seed-42 run, so the document cannot
// silently drift from what the code produces. The prose lives in the
// embedded template experiments.src.md; structure and numbers are
// machine-checked:
//
//   - Every `<!-- section: <ids...> -->` marker must name registered
//     experiment ids (or "-" for static prose). Single-id sections get
//     their `## id — Title (Source)` heading generated from the
//     registry; multi-id sections carry their own heading in the body.
//   - Generation fails unless the template's sections cover the
//     registry exactly — adding an experiment without documenting it
//     (or documenting a removed one) breaks `avsec expmd` and the CI
//     doc-freshness job.
//   - `{{m:NAME}}` / `{{m:ID:NAME}}` placeholders are substituted with
//     the named typed metric's value; an unknown name is an error.
//     `{{m:NAME|of N}}` renders a rate metric as the count "k/N" the
//     report prints (e.g. 19/30); a rate that is not a whole number of
//     N is an error.
//
// Regenerate the checked-in document with:
//
//	go run ./cmd/avsec expmd > EXPERIMENTS.md
package docs

import (
	_ "embed"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"autosec/internal/core"
)

//go:embed experiments.src.md
var experimentsTemplate string

// Metrics maps experiment id → metric name → value, as published by a
// typed run (core.RunExperimentResult) of each experiment.
type Metrics map[string]map[string]float64

var (
	sectionRe     = regexp.MustCompile(`^<!-- section: (.+?) -->$`)
	placeholderRe = regexp.MustCompile(`\{\{m:([^{}]+)\}\}`)
)

// ExperimentsMarkdown renders the EXPERIMENTS.md document. metrics must
// hold the typed metrics of every experiment the template interpolates
// from; ids and coverage are validated against core.Experiments().
func ExperimentsMarkdown(metrics Metrics) (string, error) {
	byID := make(map[string]core.Experiment)
	for _, e := range core.Experiments() {
		byID[e.ID] = e
	}
	covered := make(map[string]bool)

	var b strings.Builder
	current := "" // single experiment id of the section being rendered
	for i, line := range strings.Split(experimentsTemplate, "\n") {
		if m := sectionRe.FindStringSubmatch(line); m != nil {
			ids := strings.Fields(m[1])
			if len(ids) == 1 && ids[0] == "-" {
				current = "" // static prose: no heading, no coverage
				continue
			}
			for _, id := range ids {
				if _, ok := byID[id]; !ok {
					return "", fmt.Errorf("docs: template line %d: unknown experiment id %q", i+1, id)
				}
				if covered[id] {
					return "", fmt.Errorf("docs: template line %d: experiment %q documented twice", i+1, id)
				}
				covered[id] = true
			}
			if len(ids) == 1 {
				current = ids[0]
				e := byID[current]
				fmt.Fprintf(&b, "## %s — %s (%s)\n\n", e.ID, e.Title, e.Source)
			} else {
				current = "" // body supplies its own heading
			}
			continue
		}
		resolved, err := substitute(line, current, byID, metrics)
		if err != nil {
			return "", fmt.Errorf("docs: template line %d: %w", i+1, err)
		}
		b.WriteString(resolved)
		b.WriteString("\n")
	}

	var missing []string
	for id := range byID {
		if !covered[id] {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("docs: registry experiments not documented in the template: %s",
			strings.Join(missing, ", "))
	}
	return strings.TrimRight(b.String(), "\n") + "\n", nil
}

// substitute resolves every {{m:...}} placeholder in one template line.
// An unqualified {{m:NAME}} refers to the current single-experiment
// section; {{m:ID:NAME}} names any experiment explicitly.
func substitute(line, current string, byID map[string]core.Experiment, metrics Metrics) (string, error) {
	var firstErr error
	out := placeholderRe.ReplaceAllStringFunc(line, func(match string) string {
		content := placeholderRe.FindStringSubmatch(match)[1]
		content, ofText, isCount := strings.Cut(content, "|of ")
		id, name := current, content
		if pre, rest, ok := strings.Cut(content, ":"); ok {
			if _, known := byID[pre]; known {
				id, name = pre, rest
			}
		}
		if id == "" {
			if firstErr == nil {
				firstErr = fmt.Errorf("placeholder %s outside a single-experiment section needs an explicit {{m:ID:NAME}}", match)
			}
			return match
		}
		v, ok := metrics[id][name]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("placeholder %s: experiment %q publishes no metric %q", match, id, name)
			}
			return match
		}
		if isCount {
			n, err := strconv.Atoi(ofText)
			k := math.Round(v * float64(n))
			if err != nil || n <= 0 || math.Abs(k-v*float64(n)) > 1e-9 {
				if firstErr == nil {
					firstErr = fmt.Errorf("placeholder %s: %v is not a count out of %q", match, v, ofText)
				}
				return match
			}
			return fmt.Sprintf("%d/%d", int(k), n)
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	})
	return out, firstErr
}
