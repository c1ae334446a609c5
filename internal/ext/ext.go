// Package ext is the extension registry kernel for the two kinds a
// drop-in can add to: channel suites (Table I, kind "suite") and
// scenario attack behaviours (kind "attack"). Each registers here
// under a (kind, name) key with uniform metadata. The daemon
// (`GET /api/v1/extensions`), the CLI (`avsec ext`), and the docs
// layer all render from this one catalog.
//
// Adding an extension is a one-file drop-in: register it from an init
// function and blank-import the file's package from the binaries that
// should carry it (internal/ext/demo is the worked example; see
// docs/EXTENSIONS.md). A fleet needs no separate extension check:
// drop-ins register in init, so two workers with one code version
// carry one extension set.
//
// Determinism contract: iteration order is (Rank, Name) — stable under
// any registration interleaving, including concurrent init — and the
// "core" capability marks the built-in entries whose canonical lists
// (Table I rows, attack-type order) feed the byte-pinned goldens and
// the corpus generator. Drop-in extensions never enter those lists, so
// registering one cannot move a golden byte.
package ext

import (
	"fmt"
	"sort"
	"sync"
)

// CapCore marks a built-in entry: one whose membership in canonical
// ordered lists (Table I rows, AttackTypes) is part of the byte-pinned
// output contract. Drop-in extensions must not claim it.
const CapCore = "core"

// Meta is the uniform metadata every registered extension carries.
// The JSON shape is shared by `avsec ext -json` and the daemon's
// GET /api/v1/extensions, which is what keeps the two listings
// identical by construction.
type Meta struct {
	// Kind is the registry's kind; Register stamps it, so literals in
	// registration calls may leave it empty.
	Kind string `json:"kind"`
	// Name is the lookup key, unique within the kind.
	Name string `json:"name"`
	// Description is the one-line summary `avsec ext` prints.
	Description string `json:"description,omitempty"`
	// Paper cites the paper artefact the extension models (Table I row,
	// figure, section).
	Paper string `json:"paper,omitempty"`
	// Caps are free-form capability flags ("core", "table1", "rng",
	// ...) the shim layers filter on.
	Caps []string `json:"caps,omitempty"`
	// Rank orders iteration: lower first, ties broken by Name. Built-ins
	// use it to preserve canonical paper order; drop-ins default to 0
	// and land in name order among themselves.
	Rank int `json:"rank,omitempty"`
}

// Has reports whether the entry claims a capability flag.
func (m Meta) Has(cap string) bool {
	for _, c := range m.Caps {
		if c == cap {
			return true
		}
	}
	return false
}

// entry pairs metadata with the registered value.
type entry[T any] struct {
	meta  Meta
	value T
}

// Registry is one kind's typed extension table. The zero value is not
// usable; construct with NewRegistry, which also enters the registry
// into the package-level kinds catalog. All methods are safe for
// concurrent use.
type Registry[T any] struct {
	kind    string
	mu      sync.RWMutex
	entries map[string]entry[T]
}

// lister is the type-erased view the kinds catalog keeps per registry.
type lister interface {
	kindName() string
	metas() []Meta
}

var (
	kindsMu sync.RWMutex
	kinds   = map[string]lister{}
)

// NewRegistry creates the registry for one extension kind and enters
// it into the global kinds catalog. Two registries for the same kind
// are a wiring bug and panic at init time.
func NewRegistry[T any](kind string) *Registry[T] {
	if kind == "" {
		panic("ext: NewRegistry with empty kind")
	}
	r := &Registry[T]{kind: kind, entries: map[string]entry[T]{}}
	kindsMu.Lock()
	defer kindsMu.Unlock()
	if _, dup := kinds[kind]; dup {
		panic(fmt.Sprintf("ext: duplicate registry for kind %q", kind))
	}
	kinds[kind] = r
	return r
}

func (r *Registry[T]) kindName() string { return r.kind }

// Register enters one extension. Empty names and name collisions are
// wiring bugs, caught at init time by panic — a collision silently
// shadowing a built-in would corrupt the byte-determinism contract,
// so it must never load.
func (r *Registry[T]) Register(m Meta, v T) {
	if m.Name == "" {
		panic(fmt.Sprintf("ext: register %s with empty name", r.kind))
	}
	m.Kind = r.kind
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[m.Name]; dup {
		panic(fmt.Sprintf("ext: duplicate %s %q", r.kind, m.Name))
	}
	r.entries[m.Name] = entry[T]{meta: m, value: v}
}

// Lookup resolves a name to its registered value. Unknown names error
// with did-you-mean suggestions and the full vocabulary, so every
// declarative caller (DSL, CLI, HTTP API) is self-diagnosing.
func (r *Registry[T]) Lookup(name string) (T, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if ok {
		return e.value, nil
	}
	var zero T
	return zero, UnknownError(r.kind, name, r.Names())
}

// Get returns the value and metadata of a registered name without the
// suggestion machinery.
func (r *Registry[T]) Get(name string) (T, Meta, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e.value, e.meta, ok
}

// metas lists every entry's metadata in (Rank, Name) order — the
// deterministic iteration order of the kind.
func (r *Registry[T]) metas() []Meta {
	r.mu.RLock()
	out := make([]Meta, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.meta)
	}
	r.mu.RUnlock()
	sortMetas(out)
	return out
}

// Names lists every registered name in (Rank, Name) order.
func (r *Registry[T]) Names() []string {
	return metaNames(r.metas())
}

// NamesWith lists the names of entries claiming a capability, in
// (Rank, Name) order — how the shim layers derive their canonical
// built-in lists (e.g. Table I rows are NamesWith("table1")).
func (r *Registry[T]) NamesWith(cap string) []string {
	all := r.metas()
	out := make([]string, 0, len(all))
	for _, m := range all {
		if m.Has(cap) {
			out = append(out, m.Name)
		}
	}
	return out
}

func sortMetas(ms []Meta) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Rank != ms[j].Rank {
			return ms[i].Rank < ms[j].Rank
		}
		return ms[i].Name < ms[j].Name
	})
}

func metaNames(ms []Meta) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// Kinds lists every registered kind, sorted.
func Kinds() []string {
	kindsMu.RLock()
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	kindsMu.RUnlock()
	sort.Strings(out)
	return out
}

// All lists every extension of every kind: kinds sorted, entries in
// each kind's (Rank, Name) order. This is the one catalog `avsec ext`
// and `GET /api/v1/extensions` both render, which is what makes their
// listings identical by construction.
func All() []Meta {
	kindsMu.RLock()
	ls := make([]lister, 0, len(kinds))
	for _, l := range kinds {
		ls = append(ls, l)
	}
	kindsMu.RUnlock()
	sort.Slice(ls, func(i, j int) bool { return ls[i].kindName() < ls[j].kindName() })
	var out []Meta
	for _, l := range ls {
		out = append(out, l.metas()...)
	}
	return out
}

// CatalogDoc is the catalog document `avsec ext -json` emits and the
// daemon serves verbatim at GET /api/v1/extensions. Both render it
// from Catalog(), which is what keeps the two listings identical by
// construction.
type CatalogDoc struct {
	Extensions []Meta `json:"extensions"`
}

// Catalog returns the full extension catalog document.
func Catalog() CatalogDoc {
	metas := All()
	if metas == nil {
		metas = []Meta{}
	}
	return CatalogDoc{Extensions: metas}
}
