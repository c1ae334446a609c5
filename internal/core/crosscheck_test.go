package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"autosec/internal/sim"
)

// TestSerialParallelCrossCheck is the tentpole invariant of the
// replicate pool: every registry experiment must produce byte-identical
// reports, bit-identical typed metric streams and byte-identical JSONL
// traces whether its replicate loops run serially (nil pool) or fan out
// over a pool of 1, 2, or GOMAXPROCS workers. The serial pre-forking of per-replicate RNGs
// makes this hold by construction; this test (run under -race in CI)
// is what keeps it true as experiments evolve.
func TestSerialParallelCrossCheck(t *testing.T) {
	const seed = 42
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var baseTrace bytes.Buffer
			base, err := RunExperimentResult(e.ID, seed, RunOptions{Tracer: sim.NewJSONLTracer(&baseTrace)})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			for _, workers := range counts {
				var trace bytes.Buffer
				res, err := RunExperimentResult(e.ID, seed, RunOptions{Pool: sim.NewWorkerPool(workers), Tracer: sim.NewJSONLTracer(&trace)})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !bytes.Equal(trace.Bytes(), baseTrace.Bytes()) {
					t.Errorf("workers=%d: trace diverged from serial run\nfirst difference: %s",
						workers, firstDiff(baseTrace.String(), trace.String()))
				}
				if res.Report != base.Report {
					t.Errorf("workers=%d: report diverged from serial run\nfirst difference: %s",
						workers, firstDiff(base.Report, res.Report))
				}
				if len(res.Metrics) != len(base.Metrics) {
					t.Errorf("workers=%d: %d metrics, serial run had %d", workers, len(res.Metrics), len(base.Metrics))
					continue
				}
				for i := range base.Metrics {
					if res.Metrics[i] != base.Metrics[i] {
						t.Errorf("workers=%d: metric %d = %+v, serial run had %+v",
							workers, i, res.Metrics[i], base.Metrics[i])
					}
				}
			}
		})
	}
}

// firstDiff locates the first diverging byte for a readable failure.
func firstDiff(a, b string) string {
	off := 0
	for off < len(a) && off < len(b) && a[off] == b[off] {
		off++
	}
	end := func(s string) string {
		e := off + 32
		if e > len(s) {
			e = len(s)
		}
		return s[off:e]
	}
	return fmt.Sprintf("byte %d: %q vs %q", off, end(a), end(b))
}
