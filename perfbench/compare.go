package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json the comparator needs.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// outcome is the comparison of one workload × metric.
type outcome struct {
	OldMed, OldQ1, OldQ3 float64
	NewMed, NewQ1, NewQ3 float64
	Pairs, Wins          int
	Verdict              string
}

// Verdicts, after choosing-metrics §6 and §8.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictSame       = "no change"
)

// compareRuns judges the new runs of one metric against the old (the
// parent's). pairs holds (old, new) values run under the same seed.
//   - gain: the new side wins at least 9/10 of the pairs, ties counting
//     for neither, and the medians differ by more than the old side's
//     interquartile distance;
//   - unresolved: either side's spread (IQR / median) exceeds the bound,
//     unless every new run is better than every old run and the gain
//     rule holds;
//   - regression: the new median is worse than the old by more than
//     bound × the old median;
//   - no change otherwise.
func compareRuns(old, new []float64, pairs [][2]float64, higherBetter bool, bound float64) outcome {
	var o outcome
	o.OldQ1, o.OldMed, o.OldQ3 = quartiles(old)
	o.NewQ1, o.NewMed, o.NewQ3 = quartiles(new)
	better := func(n, ol float64) bool {
		if higherBetter {
			return n > ol
		}
		return n < ol
	}
	for _, p := range pairs {
		o.Pairs++
		if better(p[1], p[0]) {
			o.Wins++
		}
	}
	improvement := o.NewMed - o.OldMed
	if !higherBetter {
		improvement = -improvement
	}
	gain := o.Pairs > 0 && float64(o.Wins) >= 0.9*float64(o.Pairs) && improvement > math.Abs(o.OldQ3-o.OldQ1)
	allBetter := len(old) > 0 && len(new) > 0
	for _, n := range new {
		for _, ol := range old {
			allBetter = allBetter && better(n, ol)
		}
	}
	switch {
	case relSpread(old) > bound || relSpread(new) > bound:
		o.Verdict = verdictUnresolved
		if allBetter && gain {
			o.Verdict = verdictGain
		}
	case -improvement > bound*math.Abs(o.OldMed):
		o.Verdict = verdictRegression
	case gain:
		o.Verdict = verdictGain
	default:
		o.Verdict = verdictSame
	}
	return o
}

// loadRecords reads every result record under the given files or
// directories: saved record files and captured benchmark output alike.
func loadRecords(path string) ([]*record, error) {
	var out []*record
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 64<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 || line[0] != '{' {
				continue
			}
			var r record
			if json.Unmarshal(line, &r) == nil && r.Kind == recordKind {
				out = append(out, &r)
			}
		}
		return sc.Err()
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no %s lines under %s", recordKind, path)
	}
	return out, err
}

func compareMain(args []string, w io.Writer) int {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] OLD NEW  (record files or directories)")
		return 2
	}
	var bf benchFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	old, err := loadRecords(fset.Arg(0))
	if err == nil {
		var nw []*record
		nw, err = loadRecords(fset.Arg(1))
		if err == nil {
			return report(w, bf, old, nw)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

// report prints the comparison table and the work-count checks; it
// returns 1 when a metric regressed or work counts failed to repeat.
func report(w io.Writer, bf benchFile, old, nw []*record) int {
	status := 0
	fmt.Fprintln(w, "hosts:", hostList(old), "->", hostList(nw))
	fmt.Fprintf(w, "%-12s %-16s %28s %28s %7s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads(old, nw) {
		for _, m := range bf.EndToEnd {
			ov, nv, pairs := values(old, wl, m.Name), values(nw, wl, m.Name), pairUp(old, nw, wl, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o := compareRuns(ov, nv, pairs, m.Better == "higher", m.Bound)
			if o.Verdict == verdictRegression {
				status = 1
			}
			fmt.Fprintf(w, "%-12s %-16s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %3d/%-3d  %s (bound %g, n=%d/%d)\n",
				wl, m.Name, o.OldMed, o.OldQ1, o.OldQ3, o.NewMed, o.NewQ1, o.NewQ3, o.Wins, o.Pairs, o.Verdict, m.Bound, len(ov), len(nv))
		}
	}
	for _, set := range []struct {
		name string
		recs []*record
	}{{"old", old}, {"new", nw}} {
		diffs := repeatDiffs(set.recs)
		for _, d := range diffs {
			fmt.Fprintf(w, "work counts differ between runs of %s: %s\n", set.name, d)
			status = 1
		}
		if len(diffs) == 0 {
			fmt.Fprintf(w, "work counts repeat exactly within %s\n", set.name)
		}
	}
	for _, d := range repeatDiffs(append(firstPerSeed(old), firstPerSeed(nw)...)) {
		fmt.Fprintf(w, "work counts changed from old to new: %s\n", d)
	}
	return status
}

func workloads(sets ...[]*record) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range sets {
		for _, r := range s {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

func metricOf(r *record, name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// values are the untraced runs' values of a metric on a workload.
func values(recs []*record, wl, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == wl && !r.Trace {
			if v, ok := metricOf(r, name); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// pairUp pairs old and new runs of the same seed, each run used once.
func pairUp(old, nw []*record, wl, name string) [][2]float64 {
	bySeed := make(map[int64][]float64)
	for _, r := range old {
		if v, ok := metricOf(r, name); ok && r.Workload == wl && !r.Trace {
			bySeed[r.Seed] = append(bySeed[r.Seed], v)
		}
	}
	var out [][2]float64
	for _, r := range nw {
		v, ok := metricOf(r, name)
		if !ok || r.Workload != wl || r.Trace || len(bySeed[r.Seed]) == 0 {
			continue
		}
		out = append(out, [2]float64{bySeed[r.Seed][0], v})
		bySeed[r.Seed] = bySeed[r.Seed][1:]
	}
	return out
}

// repeatDiffs lists work counts that differ between records of the same
// workload and seed.
func repeatDiffs(recs []*record) []string {
	type key struct {
		wl   string
		seed int64
	}
	first := make(map[key]*record)
	var out []string
	for _, r := range recs {
		k := key{r.Workload, r.Seed}
		f, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		for name, v := range r.Work {
			if fv, ok := f.Work[name]; ok && fv != v {
				out = append(out, fmt.Sprintf("%s seed %d %s: %d vs %d", r.Workload, r.Seed, name, fv, v))
			}
		}
	}
	sort.Strings(out)
	return out
}

// firstPerSeed keeps the first record of each workload and seed.
func firstPerSeed(recs []*record) []*record {
	seen := make(map[string]bool)
	var out []*record
	for _, r := range recs {
		k := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func hostList(recs []*record) string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range recs {
		h := fmt.Sprintf("%s nproc=%d %s", r.Host.CPU, r.Host.NProc, r.Host.Go)
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return "[" + strings.Join(out, "; ") + "]"
}
