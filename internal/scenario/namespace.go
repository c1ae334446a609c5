package scenario

import (
	"fmt"

	"autosec/internal/core"
	"autosec/internal/ext"
	"autosec/internal/sim"
)

// Namespace is every experiment id a front end can run: the registry in
// paper order, then the compiled corpus of one directory in name order.
// It is loaded once (each spec parsed, compiled and fingerprinted once)
// and read-only afterwards, so `avsec`, avsecd and the fleet resolve,
// select, run and cache-key an id the same way.
type Namespace struct {
	dir     string // the corpus directory
	entries []entry
	nreg    int            // registry entries lead
	index   map[string]int // id -> entry
}

type entry struct {
	exp  core.Experiment
	spec *Spec  // nil for a registry experiment
	fp   string // spec fingerprint; "" for a registry experiment
}

// LoadNamespace loads the registry and the scenario corpus under dir. A
// missing dir, like an empty one, loads the registry alone.
func LoadNamespace(dir string) (*Namespace, error) {
	ns := &Namespace{dir: dir}
	for _, e := range core.Experiments() {
		ns.entries = append(ns.entries, entry{exp: e})
	}
	ns.nreg = len(ns.entries)
	if dir != "" {
		specs, err := LoadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, sp := range specs {
			e, err := Compile(sp)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
			}
			ns.entries = append(ns.entries, entry{exp: e, spec: sp, fp: sp.Fingerprint()})
		}
	}
	ns.index = make(map[string]int, len(ns.entries))
	for i, en := range ns.entries {
		ns.index[en.exp.ID] = i
	}
	return ns, nil
}

// Registry returns the registry experiments in paper order.
func (ns *Namespace) Registry() []core.Experiment {
	out := make([]core.Experiment, ns.nreg)
	for i, en := range ns.entries[:ns.nreg] {
		out[i] = en.exp
	}
	return out
}

// Specs returns the corpus specs in name order.
func (ns *Namespace) Specs() []*Spec {
	var out []*Spec
	for _, en := range ns.entries[ns.nreg:] {
		out = append(out, en.spec)
	}
	return out
}

// Lookup resolves an id in either namespace. An unknown id fails with
// did-you-mean suggestions drawn from both, so a typoed scenario id is
// as self-diagnosing as a typoed registry id.
func (ns *Namespace) Lookup(id string) (core.Experiment, error) {
	if i, ok := ns.index[id]; ok {
		return ns.entries[i].exp, nil
	}
	ids := make([]string, len(ns.entries))
	for i, en := range ns.entries {
		ids[i] = en.exp.ID
	}
	return core.Experiment{}, fmt.Errorf("unknown experiment %q%s — run 'avsec list' or 'avsec scenarios' for all ids", id, ext.DidYouMean(id, ids))
}

// Select chooses a campaign grid's ids. Explicit ids win and must all
// resolve; otherwise the grid is the registry, or the corpus when
// corpus is set, which fails on a namespace without scenarios.
func (ns *Namespace) Select(ids []string, corpus bool) ([]string, error) {
	if len(ids) > 0 {
		for _, id := range ids {
			if _, err := ns.Lookup(id); err != nil {
				return nil, err
			}
		}
		return ids, nil
	}
	pick := ns.entries[:ns.nreg]
	if corpus {
		pick = ns.entries[ns.nreg:]
		if len(pick) == 0 {
			return nil, fmt.Errorf("corpus requested but no scenarios under %q", ns.dir)
		}
	}
	out := make([]string, len(pick))
	for i, en := range pick {
		out[i] = en.exp.ID
	}
	return out, nil
}

// Run runs one cell of either namespace through core.RunResultOf.
func (ns *Namespace) Run(id string, seed int64, opt core.RunOptions) (*core.RunResult, error) {
	e, err := ns.Lookup(id)
	if err != nil {
		return nil, err
	}
	return core.RunResultOf(e, seed, opt)
}

// Typed returns Run as a campaign cell function (a
// campaign.TypedRunFunc) whose replicate loops borrow from pool.
func (ns *Namespace) Typed(pool *sim.WorkerPool) func(id string, seed int64) (string, []sim.Metric, error) {
	return func(id string, seed int64) (string, []sim.Metric, error) {
		r, err := ns.Run(id, seed, core.RunOptions{Pool: pool})
		if err != nil {
			return "", nil, err
		}
		return r.Report, r.Metrics, nil
	}
}

// Cost returns the id's relative cost rank for the campaign scheduler;
// an unknown id ranks 0.
func (ns *Namespace) Cost(id string) int {
	if i, ok := ns.index[id]; ok {
		return ns.entries[i].exp.Cost
	}
	return 0
}

// Fingerprint returns the canonical spec fingerprint of a scenario id,
// which keys its cached results to the spec's content, and "" for a
// registry or unknown id.
func (ns *Namespace) Fingerprint(id string) string {
	if i, ok := ns.index[id]; ok {
		return ns.entries[i].fp
	}
	return ""
}
