package ext

import (
	"fmt"
	"sort"
	"strings"
)

// UnknownError is the error of every registry and enum vocabulary
// miss: `unknown <kind> "<name>" (did you mean …?) — known: …`, the
// known names listed in the order given.
func UnknownError(kind, name string, known []string) error {
	return fmt.Errorf("unknown %s %q%s — known: %s", kind, name, DidYouMean(name, known), strings.Join(known, ", "))
}

// DidYouMean formats the suggestion clause of an unknown-name error:
// " (did you mean a, b?)" with up to three near misses, or "" when
// nothing is near. It is the repo's one did-you-mean formatter.
func DidYouMean(name string, known []string) string {
	sug := SuggestNames(name, known, 3)
	if len(sug) == 0 {
		return ""
	}
	return " (did you mean " + strings.Join(sug, ", ") + "?)"
}

// SuggestNames returns up to max candidates closest to the misspelled
// name by Damerau–Levenshtein distance, nearest first, ties in slice
// order. Candidates further than half their length away are omitted:
// past that point the suggestion is noise, not help. This is the one
// did-you-mean kernel of the repo: registry lookups, the kill-chain
// defence names, the experiment id resolvers (core.lookup and
// scenario.Namespace.Lookup), and the daemon's request validation all
// route through it via DidYouMean.
func SuggestNames(name string, candidates []string, max int) []string {
	type cand struct {
		id   string
		dist int
		pos  int
	}
	var cands []cand
	for pos, cid := range candidates {
		d := editDistance(name, cid)
		limit := len(cid) / 2
		if limit < 2 {
			limit = 2
		}
		if d <= limit || strings.HasPrefix(cid, name) {
			cands = append(cands, cand{cid, d, pos})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].pos < cands[j].pos
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// editDistance computes the Damerau–Levenshtein distance (insertions,
// deletions, substitutions, adjacent transpositions) between a and b.
func editDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			min := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < min {
				min = v // insertion
			}
			if v := prev[j-1] + cost; v < min {
				min = v // substitution
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < min {
					min = v // transposition
				}
			}
			cur[j] = min
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}
