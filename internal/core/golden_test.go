package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"autosec/internal/sim"
)

// goldenSeeds are the extra seeds every experiment must survive beyond
// the canonical seed 42: the determinism contract is only credible if
// experiments also *run* everywhere, not just at the seed the paper's
// tables were generated from.
var goldenSeeds = []int64{7, 1001, 92821}

// capture runs one experiment with full observability enabled and
// returns the report, the typed metrics, and the JSONL trace bytes.
func capture(t *testing.T, id string, seed int64) (string, []sim.Metric, []byte) {
	t.Helper()
	var trace bytes.Buffer
	tr := sim.NewJSONLTracer(&trace)
	res, err := RunExperimentResult(id, seed, RunOptions{Tracer: tr})
	if err != nil {
		t.Fatalf("%s at seed %d: %v", id, seed, err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("%s at seed %d: trace write: %v", id, seed, err)
	}
	return res.Report, res.Metrics, trace.Bytes()
}

// traceDigestFile pins the SHA-256 of every registry experiment's
// seed-42 JSONL trace, one "<hex>  <id>" line per experiment in
// registry order: the bytes `avsec run <id> -seed 42 -trace F` writes.
const traceDigestFile = "testdata/trace.sha256"

// loadTraceDigests reads traceDigestFile into a map from id to digest.
func loadTraceDigests(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(traceDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", traceDigestFile, line)
		}
		digests[f[1]] = f[0]
	}
	return digests
}

// TestGoldenDeterminismAllExperiments executes all registry experiments
// twice at seed 42 and asserts byte-identical reports, metrics, and
// traces — the sim kernel's "same seed ⇒ identical output" requirement
// now covers the full deterministic surface, trace included — and
// compares each trace with its digest in traceDigestFile, so a change
// that moves any trace byte names every experiment it moved. It then
// runs each at three distinct seeds asserting success and non-trivial
// output.
func TestGoldenDeterminismAllExperiments(t *testing.T) {
	digests := loadTraceDigests(t)
	exps := Experiments()
	if len(digests) != len(exps) {
		t.Errorf("%s pins %d traces, the registry has %d experiments", traceDigestFile, len(digests), len(exps))
	}
	for _, e := range exps {
		e := e
		want := digests[e.ID]
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			first, m1, tr1 := capture(t, e.ID, 42)
			second, m2, tr2 := capture(t, e.ID, 42)
			if first != second {
				off := 0
				for off < len(first) && off < len(second) && first[off] == second[off] {
					off++
				}
				t.Fatalf("%s violates the determinism contract: reports diverge at byte %d\nfirst:  %.60q\nsecond: %.60q",
					e.ID, off, tail(first, off), tail(second, off))
			}
			if len(m1) != len(m2) {
				t.Fatalf("%s: metric count diverges across identical runs: %d vs %d", e.ID, len(m1), len(m2))
			}
			for i := range m1 {
				if m1[i] != m2[i] {
					t.Fatalf("%s: metric %d diverges: %+v vs %+v", e.ID, i, m1[i], m2[i])
				}
			}
			if !bytes.Equal(tr1, tr2) {
				t.Fatalf("%s: trace bytes diverge across identical runs", e.ID)
			}
			sum := sha256.Sum256(tr1)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s: seed-42 trace moved (%d bytes); if intended, its %s line becomes:\n%s  %s",
					e.ID, len(tr1), traceDigestFile, got, e.ID)
			}
			// The trace must be valid JSONL bracketed by run-start/run-end.
			lines := strings.Split(strings.TrimSuffix(string(tr1), "\n"), "\n")
			if len(lines) < 2 {
				t.Fatalf("%s: trace has %d lines, want >= 2", e.ID, len(lines))
			}
			for _, line := range lines {
				var ev sim.TraceEvent
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("%s: invalid trace line %q: %v", e.ID, line, err)
				}
			}
			var start, end sim.TraceEvent
			json.Unmarshal([]byte(lines[0]), &start)
			json.Unmarshal([]byte(lines[len(lines)-1]), &end)
			if start.Kind != "run-start" || start.Name != e.ID || end.Kind != "run-end" {
				t.Fatalf("%s: trace not bracketed: first %q last %q", e.ID, lines[0], lines[len(lines)-1])
			}

			for _, seed := range goldenSeeds {
				out, err := runReport(e.ID, seed)
				if err != nil {
					t.Fatalf("%s at seed %d: %v", e.ID, seed, err)
				}
				if len(out) < 40 {
					t.Errorf("%s at seed %d: output suspiciously short:\n%s", e.ID, seed, out)
				}
			}
		})
	}
}

// TestTracedRunMatchesUntraced asserts the nil-sink fast path: the
// report with observability fully enabled must equal the report of a
// bare RunContext (no metric sink, no tracer), for every experiment.
// Capture is read-only.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			plain, err := e.Run(NewRunContext(42))
			if err != nil {
				t.Fatal(err)
			}
			traced, _, _ := capture(t, e.ID, 42)
			if plain != traced {
				t.Fatalf("%s: enabling observability changed the report", e.ID)
			}
		})
	}
}

// tail returns s from offset off, for divergence diagnostics.
func tail(s string, off int) string {
	if off > len(s) {
		return ""
	}
	return s[off:]
}
