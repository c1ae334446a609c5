package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestKernelTraceEvents checks that a traced kernel emits schedule,
// exec, counter, and series events with virtual timestamps and RNG draw
// checkpoints.
func TestKernelTraceEvents(t *testing.T) {
	t.Parallel()
	tr := newRingTracer(64)
	k := NewKernel(7)
	k.SetTracer(tr)

	k.Schedule(10, "a", func(k *Kernel) {
		k.RNG().Uint64()
		k.Count("hits", 1)
		k.Sample("lat", 3.5)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
	}
	want := map[string]int{"schedule": 1, "exec": 1, "counter": 1, "series": 1}
	for kind, n := range want {
		if kinds[kind] != n {
			t.Errorf("kind %q: got %d events, want %d (all: %v)", kind, kinds[kind], n, kinds)
		}
	}
	for _, ev := range tr.Events() {
		if ev.Kind == "exec" {
			if ev.T != 10 || ev.Name != "a" || ev.Draws != 1 {
				t.Errorf("exec event = %+v, want T=10 Name=a Draws=1", ev)
			}
		}
		if ev.Kind == "counter" && (ev.T != 10 || ev.Value != 1) {
			t.Errorf("counter event = %+v, want T=10 Value=1", ev)
		}
	}
}

// TestTraceDeterminism runs the same seeded simulation twice through a
// JSONL tracer and requires byte-identical streams.
func TestTraceDeterminism(t *testing.T) {
	t.Parallel()
	run := func() []byte {
		var buf bytes.Buffer
		tr := NewJSONLTracer(&buf)
		k := NewKernel(99)
		k.SetTracer(tr)
		var tick func(k *Kernel)
		tick = func(k *Kernel) {
			k.Sample("v", k.RNG().Float64())
			if k.Now() < 100 {
				k.After(10, "tick", tick)
			}
		}
		k.After(10, "tick", tick)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("traces diverge:\n%s\nvs\n%s", a, b)
	}
	// Every line must be valid JSON with a kind.
	for _, line := range strings.Split(strings.TrimSpace(string(a)), "\n") {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if ev.Kind == "" {
			t.Fatalf("line %q missing kind", line)
		}
	}
}

// TestRingTracerWrap checks ring-buffer retention and drop accounting.
func TestRingTracerWrap(t *testing.T) {
	t.Parallel()
	tr := newRingTracer(3)
	for i := 0; i < 5; i++ {
		tr.Trace(TraceEvent{Seq: i})
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Seq != 2 || evs[2].Seq != 4 {
		t.Fatalf("ring retained %+v, want seqs 2..4", evs)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

// TestNilTracerFastPath: an untraced kernel must behave identically to
// a traced one (minus the trace) — this is a smoke check that the nil
// guards cover every hook.
func TestNilTracerFastPath(t *testing.T) {
	t.Parallel()
	run := func(trace bool) (Time, uint64) {
		k := NewKernel(5)
		if trace {
			k.SetTracer(newRingTracer(8))
		}
		k.Schedule(1, "x", func(k *Kernel) { k.RNG().Uint64() })
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return k.Now(), k.RNG().Draws()
	}
	at, ad := run(true)
	bt, bd := run(false)
	if at != bt || ad != bd {
		t.Fatalf("traced (%v,%d) != untraced (%v,%d)", at, ad, bt, bd)
	}
}

// ringTracer retains the most recent cap events in memory, so tests
// can inspect a kernel's trace without serializing it.
type ringTracer struct {
	buf     []TraceEvent
	next    int
	wrapped bool
	dropped int
}

// newRingTracer returns a tracer retaining the last cap events.
func newRingTracer(cap int) *ringTracer {
	if cap < 1 {
		cap = 1
	}
	return &ringTracer{buf: make([]TraceEvent, cap)}
}

// Trace records ev, overwriting the oldest event when full.
func (r *ringTracer) Trace(ev TraceEvent) {
	if r.wrapped {
		r.dropped++
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// Events returns the retained events in arrival order.
func (r *ringTracer) Events() []TraceEvent {
	if !r.wrapped {
		return append([]TraceEvent(nil), r.buf[:r.next]...)
	}
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped reports how many events were overwritten after the ring
// filled.
func (r *ringTracer) Dropped() int { return r.dropped }
