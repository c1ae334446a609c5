// Package sim provides a deterministic discrete-event simulation kernel
// used by every substrate in autosec: a virtual clock, a priority event
// queue, a seeded pseudo-random source, and metric recorders.
//
// Determinism is a hard requirement: two runs with the same seed and the
// same event schedule must produce identical results, because the
// experiment harness compares attack success rates across defence
// configurations. No simulation path may consult wall-clock time.
//
// Every registry experiment runs on this kernel; the structured trace
// facility (Tracer, TraceEvent) is documented in docs/OBSERVABILITY.md.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a virtual simulation timestamp measured in nanoseconds from the
// start of the run. It is deliberately a distinct type from time.Time so
// that wall-clock values cannot leak into simulation logic.
type Time int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts the virtual timestamp into a time.Duration for
// human-readable reporting only.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Event is a unit of scheduled work. Run executes at the event's due
// time with the kernel as argument so handlers can schedule follow-ups.
type Event struct {
	At   Time
	Name string
	Run  func(k *Kernel)

	seq int // tiebreak: FIFO among equal timestamps
	idx int // heap index
}

// eventQueue implements heap.Interface ordered by (At, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Kernel is the discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Time
	queue   eventQueue
	seq     int
	rng     *RNG
	metrics *Metrics
	stopped bool
	limit   int // safety cap on processed events; 0 = unlimited
	handled int
	tracer  Tracer
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:     NewRNG(seed),
		metrics: NewMetrics(),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Metrics returns the kernel's metric registry.
func (k *Kernel) Metrics() *Metrics { return k.metrics }

// SetEventLimit caps the number of events the kernel will process before
// Run returns with an error; a guard against runaway schedules in tests.
func (k *Kernel) SetEventLimit(n int) { k.limit = n }

// SetTracer attaches a structured tracer. The kernel then emits one
// event per Schedule, per executed event (carrying the cumulative RNG
// draw count as a determinism checkpoint), and per Cancel, and the
// metric registry mirrors every Inc/Observe. A nil tracer disables all
// of it; the disabled cost is a single nil comparison per hook.
func (k *Kernel) SetTracer(t Tracer) {
	k.tracer = t
	k.metrics.bindTrace(t, k.Now)
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (k *Kernel) Tracer() Tracer { return k.tracer }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling in
// the past is an error that panics: it always indicates a logic bug in a
// protocol model, never a recoverable condition.
func (k *Kernel) Schedule(at Time, name string, fn func(k *Kernel)) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, k.now))
	}
	e := &Event{At: at, Name: name, Run: fn, seq: k.seq}
	k.seq++
	heap.Push(&k.queue, e)
	if k.tracer != nil {
		k.tracer.Trace(TraceEvent{T: k.now, Kind: "schedule", Name: name, Seq: e.seq, At: at})
	}
	return e
}

// After enqueues fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, name string, fn func(k *Kernel)) *Event {
	return k.Schedule(k.now+d, name, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.idx < 0 || e.idx >= len(k.queue) || k.queue[e.idx] != e {
		return
	}
	heap.Remove(&k.queue, e.idx)
	e.idx = -1
	if k.tracer != nil {
		k.tracer.Trace(TraceEvent{T: k.now, Kind: "cancel", Name: e.Name, Seq: e.seq})
	}
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run processes events in timestamp order until the queue is empty, the
// horizon is exceeded, or Stop is called. A horizon of 0 means no bound.
// Events beyond the horizon stay queued, so a later Run with a larger
// horizon still fires them.
func (k *Kernel) Run(horizon Time) error {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		// Peek before popping: an event past the horizon must remain
		// pending, not be silently dropped.
		if horizon > 0 && k.queue[0].At > horizon {
			k.now = horizon
			return nil
		}
		e := heap.Pop(&k.queue).(*Event)
		e.idx = -1
		k.now = e.At
		e.Run(k)
		k.handled++
		if k.tracer != nil {
			k.tracer.Trace(TraceEvent{T: k.now, Kind: "exec", Name: e.Name, Seq: e.seq, Draws: k.rng.Draws()})
		}
		if k.limit > 0 && k.handled >= k.limit {
			return fmt.Errorf("sim: event limit %d reached at %v (last %q)", k.limit, k.now, e.Name)
		}
	}
	return nil
}

// Pending reports the number of events still queued.
func (k *Kernel) Pending() int { return len(k.queue) }

// Processed reports the number of events handled so far.
func (k *Kernel) Processed() int { return k.handled }

// RNG is a deterministic pseudo-random source (splitmix64 core with a
// xorshift finisher). It is intentionally independent from math/rand so
// that library-version changes can never silently alter experiment
// outputs.
type RNG struct {
	state uint64
	draws uint64
}

// NewRNG returns a generator seeded with seed. Seed 0 is remapped to a
// fixed non-zero constant so the zero seed is still usable.
func NewRNG(seed int64) *RNG {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &RNG{state: s}
}

// Draws reports the number of 64-bit words drawn so far. It is the
// cheapest possible determinism checkpoint: two runs of the same seed
// must show identical draw counts at identical virtual times, so a
// divergence pins the first event that consumed randomness differently.
func (r *RNG) Draws() uint64 { return r.draws }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.draws++
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// Fork derives an independent generator from this one, for components
// that need their own stream without perturbing the parent sequence.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64() ^ 0xD1B54A32D192ED03}
}
