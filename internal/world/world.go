// Package world provides the shared 2-D kinematic ground truth that the
// sensing (§II-B) and collaboration (§VII) layers observe: actors with
// position, velocity, and extent, stepped deterministically. Sensors
// *sample* this world with noise and adversarial distortion; having an
// exact ground truth is what lets the experiments score attacks and
// defences objectively.
//
// Exercised by experiments exp-ca, exp-collab, exp-v2x, and ablate-k
// (the shared 2-D world).
package world

import (
	"fmt"
	"math"
	"sort"
)

// Vec2 is a 2-D vector in metres (or metres/second for velocities).
type Vec2 struct {
	X, Y float64
}

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v − o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v·s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Norm returns the Euclidean length.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the distance between two points.
func Dist(a, b Vec2) float64 { return a.Sub(b).Norm() }

// Actor is one physical object: a vehicle, pedestrian, or obstacle.
type Actor struct {
	ID     string
	Pos    Vec2
	Vel    Vec2
	Radius float64 // bounding circle for collision checks
	// Transponder marks actors that carry a cooperative ranging radio
	// (UWB/5G-PRS); only these can be verified by two-way ranging.
	Transponder bool
}

// World holds the actors.
type World struct {
	actors map[string]*Actor
	order  []string // stable iteration order
	sorted []string // order sorted by ID, maintained incrementally
	time   float64
}

// New returns an empty world.
func New() *World {
	return &World{actors: make(map[string]*Actor)}
}

// Add inserts an actor; the ID must be unique.
func (w *World) Add(a *Actor) error {
	if a.ID == "" {
		return fmt.Errorf("world: actor needs an ID")
	}
	if _, dup := w.actors[a.ID]; dup {
		return fmt.Errorf("world: duplicate actor %q", a.ID)
	}
	w.actors[a.ID] = a
	w.order = append(w.order, a.ID)
	// Keep the by-ID index sorted on insert: collision checks run every
	// world step, so they must not re-sort the whole ID set each call.
	at := sort.SearchStrings(w.sorted, a.ID)
	w.sorted = append(w.sorted, "")
	copy(w.sorted[at+1:], w.sorted[at:])
	w.sorted[at] = a.ID
	return nil
}

// Remove deletes an actor; unknown IDs are a no-op.
func (w *World) Remove(id string) {
	if _, ok := w.actors[id]; !ok {
		return
	}
	delete(w.actors, id)
	for i, v := range w.order {
		if v == id {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	if at := sort.SearchStrings(w.sorted, id); at < len(w.sorted) && w.sorted[at] == id {
		w.sorted = append(w.sorted[:at], w.sorted[at+1:]...)
	}
}

// Get returns the actor or nil.
func (w *World) Get(id string) *Actor { return w.actors[id] }

// Actors returns all actors in insertion order.
func (w *World) Actors() []*Actor {
	out := make([]*Actor, 0, len(w.order))
	for _, id := range w.order {
		out = append(out, w.actors[id])
	}
	return out
}

// Time returns the accumulated simulated seconds.
func (w *World) Time() float64 { return w.time }

// Step advances every actor by dt seconds of straight-line motion.
func (w *World) Step(dt float64) {
	for _, a := range w.actors {
		a.Pos = a.Pos.Add(a.Vel.Scale(dt))
	}
	w.time += dt
}

// Collisions returns all overlapping actor pairs, ordered by ID. The
// pair order is pinned by TestCollisionsPairOrder: it walks the
// incrementally maintained sorted index, which must enumerate exactly
// as the historical copy-and-sort implementation did.
func (w *World) Collisions() [][2]string {
	var out [][2]string
	ids := w.sorted
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := w.actors[ids[i]], w.actors[ids[j]]
			if Dist(a.Pos, b.Pos) < a.Radius+b.Radius {
				out = append(out, [2]string{a.ID, b.ID})
			}
		}
	}
	return out
}

// NeighborsAppend appends the actors other than excludeID within radius
// of pos to dst (which may be nil), in insertion order, and returns it,
// so per-tick callers can reuse one backing array instead of allocating
// a fresh slice for every query.
func (w *World) NeighborsAppend(dst []*Actor, pos Vec2, radius float64, excludeID string) []*Actor {
	for _, id := range w.order {
		a := w.actors[id]
		if a.ID == excludeID {
			continue
		}
		if Dist(pos, a.Pos) <= radius {
			dst = append(dst, a)
		}
	}
	return dst
}
