package world

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := Vec2{3, 4}
	if a.Norm() != 5 {
		t.Errorf("Norm = %v", a.Norm())
	}
	if got := a.Add(Vec2{1, 1}); got != (Vec2{4, 5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(Vec2{1, 1}); got != (Vec2{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if Dist(Vec2{0, 0}, Vec2{0, 7}) != 7 {
		t.Error("Dist wrong")
	}
}

func TestAddRemoveGet(t *testing.T) {
	w := New()
	if err := w.Add(&Actor{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(&Actor{ID: "a"}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := w.Add(&Actor{}); err == nil {
		t.Error("empty ID accepted")
	}
	if w.Get("a") == nil {
		t.Error("Get failed")
	}
	w.Remove("a")
	if w.Get("a") != nil {
		t.Error("Remove failed")
	}
	w.Remove("missing") // no-op
	if len(w.Actors()) != 0 {
		t.Error("Actors not empty")
	}
}

func TestStepIntegratesVelocity(t *testing.T) {
	w := New()
	_ = w.Add(&Actor{ID: "v", Pos: Vec2{0, 0}, Vel: Vec2{10, -2}})
	w.Step(0.5)
	a := w.Get("v")
	if a.Pos != (Vec2{5, -1}) {
		t.Errorf("Pos = %v", a.Pos)
	}
	if w.Time() != 0.5 {
		t.Errorf("Time = %v", w.Time())
	}
}

func TestCollisions(t *testing.T) {
	w := New()
	_ = w.Add(&Actor{ID: "a", Pos: Vec2{0, 0}, Radius: 1})
	_ = w.Add(&Actor{ID: "b", Pos: Vec2{1.5, 0}, Radius: 1})
	_ = w.Add(&Actor{ID: "c", Pos: Vec2{10, 0}, Radius: 1})
	cols := w.Collisions()
	if len(cols) != 1 || cols[0] != [2]string{"a", "b"} {
		t.Errorf("Collisions = %v", cols)
	}
}

// TestCollisionsPairOrder pins Collisions' enumeration order to the
// historical copy-and-sort behaviour: pairs come out in sorted-ID
// order regardless of insertion order, removals, and re-adds, so the
// incrementally maintained index must stay an exact sorted view.
func TestCollisionsPairOrder(t *testing.T) {
	w := New()
	// Insert out of order, with everyone overlapping everyone.
	for _, id := range []string{"m", "z", "a", "q", "b"} {
		if err := w.Add(&Actor{ID: id, Radius: 10}); err != nil {
			t.Fatal(err)
		}
	}
	w.Remove("q")
	if err := w.Add(&Actor{ID: "c", Radius: 10}); err != nil {
		t.Fatal(err)
	}
	want := [][2]string{
		{"a", "b"}, {"a", "c"}, {"a", "m"}, {"a", "z"},
		{"b", "c"}, {"b", "m"}, {"b", "z"},
		{"c", "m"}, {"c", "z"},
		{"m", "z"},
	}
	got := w.Collisions()
	if len(got) != len(want) {
		t.Fatalf("Collisions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestNeighborsAppendReusesScratch pins NeighborsAppend into a scratch
// slice to the order of a fresh query while confirming the scratch slice
// is actually reused.
func TestNeighborsAppendReusesScratch(t *testing.T) {
	w := New()
	for i, id := range []string{"ego", "n1", "n2", "n3"} {
		if err := w.Add(&Actor{ID: id, Pos: Vec2{X: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]*Actor, 0, 8)
	got := w.NeighborsAppend(scratch[:0], Vec2{}, 10, "ego")
	want := w.NeighborsAppend(nil, Vec2{}, 10, "ego")
	if len(got) != len(want) {
		t.Fatalf("NeighborsAppend = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbor %d = %v, want %v", i, got[i].ID, want[i].ID)
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("NeighborsAppend did not reuse the caller's scratch backing array")
	}
}

func TestNeighborsExcludesSelfAndFar(t *testing.T) {
	w := New()
	_ = w.Add(&Actor{ID: "ego", Pos: Vec2{0, 0}})
	_ = w.Add(&Actor{ID: "near", Pos: Vec2{5, 0}})
	_ = w.Add(&Actor{ID: "far", Pos: Vec2{100, 0}})
	ns := w.NeighborsAppend(nil, Vec2{0, 0}, 10, "ego")
	if len(ns) != 1 || ns[0].ID != "near" {
		t.Errorf("NeighborsAppend = %v", ns)
	}
}

func TestActorsStableOrder(t *testing.T) {
	w := New()
	for _, id := range []string{"z", "a", "m"} {
		_ = w.Add(&Actor{ID: id})
	}
	got := w.Actors()
	want := []string{"z", "a", "m"}
	for i := range want {
		if got[i].ID != want[i] {
			t.Fatalf("order %v", got)
		}
	}
}

func TestStepLinearityProperty(t *testing.T) {
	f := func(px, py, vx, vy int8, steps uint8) bool {
		w := New()
		a := &Actor{ID: "p", Pos: Vec2{float64(px), float64(py)}, Vel: Vec2{float64(vx), float64(vy)}}
		_ = w.Add(a)
		n := int(steps%20) + 1
		for i := 0; i < n; i++ {
			w.Step(0.1)
		}
		wantX := float64(px) + float64(vx)*0.1*float64(n)
		wantY := float64(py) + float64(vy)*0.1*float64(n)
		return math.Abs(a.Pos.X-wantX) < 1e-9 && math.Abs(a.Pos.Y-wantY) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
