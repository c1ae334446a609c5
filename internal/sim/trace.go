package sim

import (
	"encoding/json"
	"io"
)

// TraceEvent is one structured observation of simulation internals. All
// timestamps are virtual (kernel time, nanoseconds); a trace therefore
// contains no wall-clock data and is byte-identical across runs with the
// same seed — traces are part of the deterministic surface.
//
// Kind values and their populated fields:
//
//	run-start  Name=experiment id, Value=seed
//	run-end    Name=experiment id, Draws=total RNG draws
//	schedule   T=now, Name=event name, Seq=event sequence, At=due time
//	exec       T=due time, Name=event name, Seq, Draws=cumulative kernel
//	           RNG draw count after the handler ran (the RNG checkpoint)
//	counter    T=now, Name=counter name, Value=delta (Kernel.Count)
//	series     T=now, Name=series name, Value=sample (Kernel.Sample)
//	metric     T=now, Name=published metric name, Value=metric value
//
// Zero-valued fields are omitted from the JSONL encoding; an absent
// field reads as 0.
type TraceEvent struct {
	T     Time    `json:"t"`
	Kind  string  `json:"kind"`
	Name  string  `json:"name,omitempty"`
	Seq   int     `json:"seq,omitempty"`
	At    Time    `json:"at,omitempty"`
	Value float64 `json:"value,omitempty"`
	Draws uint64  `json:"draws,omitempty"`
}

// Tracer receives trace events. Implementations must be cheap: the
// kernel emits one event per scheduled and per executed event. A nil
// Tracer everywhere means tracing is disabled and costs one pointer
// comparison per hook (the nil-tracer fast path).
type Tracer interface {
	Trace(ev TraceEvent)
}

// JSONLTracer streams every event to w as one JSON object per line
// (JSON Lines). Encoding uses the TraceEvent field order, so the byte
// stream is deterministic. Write errors are sticky: the first one is
// retained, subsequent events are dropped, and Err reports it.
type JSONLTracer struct {
	w   io.Writer
	n   int
	err error
}

// NewJSONLTracer returns a tracer streaming to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: w}
}

// Trace encodes ev as one JSON line.
func (t *JSONLTracer) Trace(ev TraceEvent) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	b = append(b, '\n')
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Count reports the number of events written.
func (t *JSONLTracer) Count() int { return t.n }

// Err returns the first write or encoding error, if any.
func (t *JSONLTracer) Err() error { return t.err }
