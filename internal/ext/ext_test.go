package ext

import (
	"reflect"
	"sync"
	"testing"
)

// newTestRegistry builds a registry without entering the global kinds
// catalog, so tests can create as many as they like without tripping
// the duplicate-kind panic.
func newTestRegistry[T any](kind string) *Registry[T] {
	return &Registry[T]{kind: kind, entries: map[string]entry[T]{}}
}

func TestRegisterLookup(t *testing.T) {
	t.Parallel()
	r := newTestRegistry[int]("widget")
	r.Register(Meta{Name: "alpha", Description: "first", Paper: "§I", Caps: []string{CapCore}}, 1)
	r.Register(Meta{Name: "beta"}, 2)

	v, err := r.Lookup("alpha")
	if err != nil || v != 1 {
		t.Fatalf("Lookup(alpha) = %v, %v", v, err)
	}
	v, m, ok := r.Get("alpha")
	if !ok || v != 1 || m.Kind != "widget" || m.Paper != "§I" || !m.Has(CapCore) {
		t.Fatalf("Get(alpha) = %v, %+v, %v — want kind stamped and caps kept", v, m, ok)
	}
	if _, _, ok := r.Get("gamma"); ok {
		t.Fatal("Get(gamma) found an unregistered entry")
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Names = %v, want [alpha beta]", got)
	}
}

func TestLookupUnknownSuggests(t *testing.T) {
	t.Parallel()
	r := newTestRegistry[string]("suite")
	r.Register(Meta{Name: "SECOC", Rank: 1}, "")
	r.Register(Meta{Name: "MACsec", Rank: 2}, "")
	_, lookupErr := r.Lookup("SECOD")
	if lookupErr == nil {
		t.Fatal("Lookup(SECOD) succeeded")
	}
	defences := []string{"enumeration-defence", "disable-heapdump", "secret-scrubbing", "least-privilege", "data-minimization"}
	for _, c := range []struct {
		err  error
		want string
	}{
		{lookupErr, `unknown suite "SECOD" (did you mean SECOC?) — known: SECOC, MACsec`},
		{UnknownError("defence", "least-privilage", defences),
			`unknown defence "least-privilage" (did you mean least-privilege?) — known: enumeration-defence, disable-heapdump, secret-scrubbing, least-privilege, data-minimization`},
		{UnknownError("defence", "zzzzzzzzzzzz", defences),
			`unknown defence "zzzzzzzzzzzz" — known: enumeration-defence, disable-heapdump, secret-scrubbing, least-privilege, data-minimization`},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("error = %q\nwant    %q", got, c.want)
		}
	}
}

func TestCollisionPanics(t *testing.T) {
	t.Parallel()
	r := newTestRegistry[int]("widget")
	r.Register(Meta{Name: "alpha"}, 1)
	mustPanic(t, "duplicate name", func() { r.Register(Meta{Name: "alpha"}, 2) })
	mustPanic(t, "empty name", func() { r.Register(Meta{}, 3) })
}

func TestDuplicateKindPanics(t *testing.T) {
	t.Parallel()
	NewRegistry[int]("ext-test-dup-kind")
	mustPanic(t, "duplicate kind", func() { NewRegistry[string]("ext-test-dup-kind") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestDeterministicOrderUnderConcurrentRegistration registers entries
// from many goroutines in scrambled order and checks the iteration
// order is the (Rank, Name) order regardless — the property the
// byte-determinism contract needs from init-time registration.
func TestDeterministicOrderUnderConcurrentRegistration(t *testing.T) {
	t.Parallel()
	names := []string{"echo", "alpha", "delta", "bravo", "charlie", "foxtrot"}
	want := []string{"charlie", "alpha", "bravo", "delta", "echo", "foxtrot"}
	for trial := 0; trial < 8; trial++ {
		r := newTestRegistry[int]("widget")
		var wg sync.WaitGroup
		for i, n := range names {
			wg.Add(1)
			go func(i int, n string) {
				defer wg.Done()
				rank := 1
				if n == "charlie" {
					rank = 0 // rank beats name
				}
				r.Register(Meta{Name: n, Rank: rank}, i)
			}(i, n)
		}
		wg.Wait()
		if got := r.Names(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Names() = %v, want %v", trial, got, want)
		}
	}
}

func TestNamesWithFiltersByCap(t *testing.T) {
	t.Parallel()
	r := newTestRegistry[int]("suite")
	r.Register(Meta{Name: "SECOC", Rank: 1, Caps: []string{"table1", CapCore}}, 0)
	r.Register(Meta{Name: "noop-mac", Rank: 100}, 0)
	r.Register(Meta{Name: "MACsec", Rank: 4, Caps: []string{"table1", CapCore}}, 0)
	if got := r.NamesWith("table1"); !reflect.DeepEqual(got, []string{"SECOC", "MACsec"}) {
		t.Errorf("NamesWith(table1) = %v", got)
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"SECOC", "MACsec", "noop-mac"}) {
		t.Errorf("Names() = %v", got)
	}
}

// TestSuggestNamesQuality pins the suggestion ranking: typos resolve
// to their nearest neighbour first, prefixes always qualify, and
// garbage yields nothing.
func TestSuggestNamesQuality(t *testing.T) {
	t.Parallel()
	names := []string{"replay", "forge", "masquerade", "flood", "delay", "killchain"}
	if got := SuggestNames("reply", names, 3); len(got) == 0 || got[0] != "replay" {
		t.Errorf("SuggestNames(reply) = %v, want replay first", got)
	}
	if got := SuggestNames("dely", names, 3); len(got) == 0 || got[0] != "delay" {
		t.Errorf("SuggestNames(dely) = %v, want delay first", got)
	}
	// Adjacent transposition counts as one edit (Damerau).
	if got := SuggestNames("ofrge", names, 3); len(got) == 0 || got[0] != "forge" {
		t.Errorf("SuggestNames(ofrge) = %v, want forge first", got)
	}
	if got := SuggestNames("kill", names, 3); len(got) != 1 || got[0] != "killchain" {
		t.Errorf("SuggestNames(prefix kill) = %v, want killchain", got)
	}
	if got := SuggestNames("zzzzzzzzzz", names, 3); len(got) != 0 {
		t.Errorf("SuggestNames(garbage) = %v, want none", got)
	}
	if got := SuggestNames("relay", names, 1); len(got) != 1 {
		t.Errorf("SuggestNames max=1 returned %v", got)
	}
}
