// Package sim provides a deterministic discrete-event simulation kernel
// used by every substrate in autosec: a virtual clock, a priority event
// queue, a seeded pseudo-random source, and trace-only counters and
// samples.
//
// Determinism is a hard requirement: two runs with the same seed and the
// same event schedule must produce identical results, because the
// experiment harness compares attack success rates across defence
// configurations. No simulation path may consult wall-clock time.
//
// Every registry experiment runs on this kernel; the structured trace
// facility (Tracer, TraceEvent) is documented in docs/OBSERVABILITY.md.
//
// RNG.NormFill is the UWB channel's noise source. On amd64 hosts with
// AVX-512 (HostCPU) its fast path runs eight draws at a time in
// assembly; the samples, the state and Draws() are bit-identical to
// the scalar loop every other host runs.
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

func (t Time) String() string {
	return time.Duration(t).String()
}

// event is a unit of scheduled work. run executes at the event's due
// time with the kernel as argument so handlers can schedule follow-ups.
type event struct {
	at   Time
	name string
	run  func(k *Kernel)
	seq  int // tiebreak: FIFO among equal timestamps
}

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
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
	limit   int // safety cap on processed events; 0 = unlimited
	handled int
	tracer  Tracer
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// SetEventLimit caps the number of events the kernel will process before
// Run returns with an error; a guard against runaway schedules in tests.
func (k *Kernel) SetEventLimit(n int) { k.limit = n }

// SetTracer attaches a structured tracer. The kernel then emits one
// event per Schedule, per executed event (carrying the cumulative RNG
// draw count as a determinism checkpoint), per Count and per Sample. A
// nil tracer disables all of it; the disabled cost is a single nil
// comparison per hook.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// Count traces a "counter" event adding delta to the named counter.
// The kernel stores nothing: without a tracer it is a no-op.
func (k *Kernel) Count(name string, delta int64) {
	if k.tracer != nil {
		k.tracer.Trace(TraceEvent{T: k.now, Kind: "counter", Name: name, Value: float64(delta)})
	}
}

// Sample traces a "series" event carrying one sample v of the named
// series. The kernel stores nothing: without a tracer it is a no-op.
func (k *Kernel) Sample(name string, v float64) {
	if k.tracer != nil {
		k.tracer.Trace(TraceEvent{T: k.now, Kind: "series", Name: name, Value: v})
	}
}

// Schedule enqueues fn to run at absolute virtual time at. Scheduling in
// the past is an error that panics: it always indicates a logic bug in a
// protocol model, never a recoverable condition.
func (k *Kernel) Schedule(at Time, name string, fn func(k *Kernel)) {
	if at < k.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, k.now))
	}
	heap.Push(&k.queue, &event{at: at, name: name, run: fn, seq: k.seq})
	if k.tracer != nil {
		k.tracer.Trace(TraceEvent{T: k.now, Kind: "schedule", Name: name, Seq: k.seq, At: at})
	}
	k.seq++
}

// After enqueues fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, name string, fn func(k *Kernel)) {
	k.Schedule(k.now+d, name, fn)
}

// Run processes events in timestamp order until the queue is empty or
// the horizon is exceeded. A horizon of 0 means no bound. Events beyond
// the horizon stay queued, so a later Run with a larger horizon still
// fires them.
func (k *Kernel) Run(horizon Time) error {
	for len(k.queue) > 0 {
		// Peek before popping: an event past the horizon must remain
		// pending, not be silently dropped.
		if horizon > 0 && k.queue[0].at > horizon {
			k.now = horizon
			return nil
		}
		e := heap.Pop(&k.queue).(*event)
		k.now = e.at
		e.run(k)
		k.handled++
		if k.tracer != nil {
			k.tracer.Trace(TraceEvent{T: k.now, Kind: "exec", Name: e.name, Seq: e.seq, Draws: k.rng.Draws()})
		}
		if k.limit > 0 && k.handled >= k.limit {
			return fmt.Errorf("sim: event limit %d reached at %v (last %q)", k.limit, k.now, e.name)
		}
	}
	return nil
}

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

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

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
