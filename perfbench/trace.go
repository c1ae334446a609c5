package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autosec/internal/sim"
)

// spanHeader carries a chunk request's span id from the client
// transport to the daemon middleware, which links its handler span to
// the request span through it.
const spanHeader = "X-Perfbench-Span"

// span is one timed interval at a layer boundary. Spans of one pass
// (campaign pass or fleet sweep) share Pass; Parent 0 marks a root.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Pass   int           `json:"pass"`
	Layer  string        `json:"layer"`           // module the interval is charged to
	Group  string        `json:"group,omitempty"` // experiment group or suite inside the layer
	Name   string        `json:"name,omitempty"`  // cell id, for cell spans
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// epoch is the origin of every timestamp the benchmark records.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// recorder keeps spans in memory; they are summarised when the run
// ends, never written while it is being timed.
type recorder struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children (parallel cells of one
// pass) are merged first, so covered time is never subtracted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	ivs = append([][2]time.Duration(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// attrRow is one line of the layer-attribution table.
type attrRow struct {
	Layer string  `json:"layer"`
	Group string  `json:"group,omitempty"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
}

// attribution sums self time per layer, and per group inside a layer,
// as a share of all self time.
func attribution(spans []span) []attrRow {
	self := selfTimes(spans)
	byLayer := make(map[string]time.Duration)
	byGroup := make(map[[2]string]time.Duration)
	var total time.Duration
	for _, s := range spans {
		d := self[s.ID]
		total += d
		byLayer[s.Layer] += d
		if s.Group != "" {
			byGroup[[2]string{s.Layer, s.Group}] += d
		}
	}
	var rows []attrRow
	share := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return float64(d) / float64(total)
	}
	for l, d := range byLayer {
		rows = append(rows, attrRow{Layer: l, SelfS: d.Seconds(), Share: share(d)})
	}
	for k, d := range byGroup {
		rows = append(rows, attrRow{Layer: k[0], Group: k[1], SelfS: d.Seconds(), Share: share(d)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Layer != rows[j].Layer {
			return byLayer[rows[i].Layer] > byLayer[rows[j].Layer]
		}
		if (rows[i].Group == "") != (rows[j].Group == "") {
			return rows[i].Group == ""
		}
		return rows[i].SelfS > rows[j].SelfS
	})
	return rows
}

// countTracer counts work through the sim.Tracer hook: executed kernel
// events, and root-RNG draws reported at each run's end. Replicates may
// share it, so the counters are atomic.
type countTracer struct {
	events atomic.Uint64
	draws  atomic.Uint64
}

func (c *countTracer) Trace(ev sim.TraceEvent) {
	switch ev.Kind {
	case "exec":
		c.events.Add(1)
	case "run-end":
		c.draws.Add(ev.Draws)
	}
}

// request is one chunk request as the coordinator's transport saw it.
type request struct {
	start, end time.Duration
	bytes      int64
	status     int
	failed     bool // transport error, non-2xx, or a stream cut short
	canceled   bool // the coordinator gave up on it (run complete)
	spanID     int64
	cells      []cellKey // the cells the chunk asked for
}

// transport times every campaign POST from the request until its
// NDJSON stream ends. With a recorder attached it also sends the span
// header and decodes the chunk's cells for re-execution accounting.
type transport struct {
	base *http.Transport
	rec  atomic.Pointer[recorder]

	mu   sync.Mutex
	reqs []*request
}

func newTransport() *transport {
	return &transport{base: &http.Transport{MaxIdleConnsPerHost: 8}}
}

// take returns and clears the requests recorded so far.
func (t *transport) take() []*request {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.reqs
	t.reqs = nil
	return out
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return t.base.RoundTrip(req)
	}
	rq := &request{}
	if rec := t.rec.Load(); rec != nil {
		rq.spanID = rec.newID()
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(rq.spanID, 10))
		rq.cells = chunkCells(req)
	}
	rq.start = now()
	t.mu.Lock()
	t.reqs = append(t.reqs, rq)
	t.mu.Unlock()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		rq.end = now()
		rq.canceled = req.Context().Err() != nil
		rq.failed = !rq.canceled
		return nil, err
	}
	rq.status = resp.StatusCode
	resp.Body = &streamBody{rc: resp.Body, rq: rq, ctxErr: req.Context().Err}
	return resp, nil
}

// chunkCells decodes the (id, seed) cells of a chunk request body
// without consuming it.
func chunkCells(req *http.Request) []cellKey {
	if req.GetBody == nil {
		return nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	defer body.Close()
	var cr struct {
		IDs   []string `json:"ids"`
		Seeds []int64  `json:"seeds"`
	}
	if json.NewDecoder(body).Decode(&cr) != nil {
		return nil
	}
	var out []cellKey
	for _, id := range cr.IDs {
		for _, s := range cr.Seeds {
			out = append(out, cellKey{id, s})
		}
	}
	return out
}

// streamBody counts the response bytes and ends the request's interval
// when the stream reaches EOF or is closed. A stream that does not end
// with the daemon's "done" event is truncated.
type streamBody struct {
	rc     io.ReadCloser
	rq     *request
	ctxErr func() error
	tail   []byte
	once   sync.Once
}

func (b *streamBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.rq.bytes += int64(n)
	b.track(p[:n])
	if err != nil {
		b.finish(err == io.EOF)
	}
	return n, err
}

func (b *streamBody) Close() error {
	b.finish(false)
	return b.rc.Close()
}

// tailBytes bounds the stream tail kept to find the last event; the
// daemon's "done" event is far shorter.
const tailBytes = 512

// track keeps the last tailBytes of the stream.
func (b *streamBody) track(p []byte) {
	b.tail = append(b.tail, p...)
	if len(b.tail) > tailBytes {
		b.tail = b.tail[:copy(b.tail, b.tail[len(b.tail)-tailBytes:])]
	}
}

// endsDone reports whether the last line of the stream is a done event.
func (b *streamBody) endsDone() bool {
	last := bytes.TrimRight(b.tail, "\n")
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	return bytes.HasPrefix(last, []byte(`{"type":"done"`))
}

func (b *streamBody) finish(eof bool) {
	b.once.Do(func() {
		rq := b.rq
		rq.end = now()
		switch {
		case rq.status < 200 || rq.status > 299:
			rq.failed = true
		case eof && b.endsDone():
		case b.ctxErr() != nil:
			rq.canceled = true
		default:
			rq.failed = true
		}
	})
}

// handlerSpan is one daemon handler interval, linked to the request
// span that caused it.
type handlerSpan struct {
	parent int64
	start  time.Duration
	end    time.Duration
}

// daemon wraps a Server's Handler; with a recorder attached it times
// every campaign request it serves.
type daemon struct {
	h   http.Handler
	rec atomic.Pointer[recorder]

	mu    sync.Mutex
	spans []handlerSpan
}

func (d *daemon) take() []handlerSpan {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.spans
	d.spans = nil
	return out
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := d.rec.Load()
	hdr := r.Header.Get(spanHeader)
	if rec == nil || hdr == "" {
		d.h.ServeHTTP(w, r)
		return
	}
	start := now()
	d.h.ServeHTTP(w, r)
	hs := handlerSpan{start: start, end: now()}
	hs.parent, _ = strconv.ParseInt(hdr, 10, 64)
	d.mu.Lock()
	d.spans = append(d.spans, hs)
	d.mu.Unlock()
}
