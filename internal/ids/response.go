package ids

import (
	"fmt"
	"sort"

	"autosec/internal/canbus"
	"autosec/internal/sim"
)

// ResponseAction enumerates what the response engine can do, following
// the REACT taxonomy (ref [56]): alert only, isolate the attributed
// node, or isolate and trigger a session rekey of the affected channel.
type ResponseAction int

const (
	AlertOnly ResponseAction = iota
	Isolate
	IsolateAndRekey
)

func (a ResponseAction) String() string {
	switch a {
	case AlertOnly:
		return "alert"
	case Isolate:
		return "isolate"
	case IsolateAndRekey:
		return "isolate+rekey"
	default:
		return "unknown"
	}
}

// Engine combines detectors with automated response. It is attached to
// a bus as a tap; detections above the alert threshold trigger the
// configured action.
type Engine struct {
	Action ResponseAction
	// AlertThreshold is how many alerts attributed to one source are
	// needed before responding (debounces fingerprint noise).
	AlertThreshold int

	interval *IntervalDetector
	senderID *SenderIdentifier

	alerts     []Alert
	perSource  map[string]int
	isolated   map[string]bool
	rekeyCount int
	kernel     *sim.Kernel
	// ContainedAt records when each source was isolated.
	ContainedAt map[string]sim.Time
}

// NewEngine builds a response engine with both detectors.
func NewEngine(action ResponseAction, k *sim.Kernel) *Engine {
	return &Engine{
		Action:         action,
		AlertThreshold: 3,
		interval:       NewIntervalDetector(),
		senderID:       NewSenderIdentifier(k.RNG().Fork()),
		perSource:      make(map[string]int),
		isolated:       make(map[string]bool),
		ContainedAt:    make(map[string]sim.Time),
		kernel:         k,
	}
}

// Interval exposes the interval detector for training control.
func (e *Engine) Interval() *IntervalDetector { return e.interval }

// SenderID exposes the fingerprint detector for enrolment.
func (e *Engine) SenderID() *SenderIdentifier { return e.senderID }

// Attach registers the engine on a bus. The returned gate function
// should be installed in nodes that honor isolation (the zone
// controller refusing to forward an isolated ECU's traffic).
func (e *Engine) Attach(b *canbus.Bus) {
	b.Tap(func(f *canbus.Frame) { e.observe(f) })
}

// Isolated reports whether a node has been cut off.
func (e *Engine) Isolated(nodeID string) bool { return e.isolated[nodeID] }

// Alerts returns all raised alerts.
func (e *Engine) Alerts() []Alert { return e.alerts }

// Rekeys returns how many rekey operations were triggered.
func (e *Engine) Rekeys() int { return e.rekeyCount }

// observe runs both detectors on a delivered frame.
func (e *Engine) observe(f *canbus.Frame) {
	now := e.kernel.Now()
	if a, ok := e.interval.Observe(now, f); ok {
		e.raise(a, "ids.alerts.interval")
	}
	if a, ok := e.senderID.Observe(now, f); ok {
		e.raise(a, "ids.alerts.sender-id")
	}
}

// raise records a and counts it under counter, "ids.alerts." plus a's
// detector, passed as a constant so an untraced run builds no name.
func (e *Engine) raise(a Alert, counter string) {
	e.alerts = append(e.alerts, a)
	e.kernel.Count(counter, 1)
	src := a.Source
	if src == "" {
		return // cannot respond without attribution
	}
	e.perSource[src]++
	if e.perSource[src] < e.AlertThreshold || e.isolated[src] {
		return
	}
	switch e.Action {
	case AlertOnly:
	case Isolate, IsolateAndRekey:
		e.isolated[src] = true
		e.ContainedAt[src] = a.At
		e.kernel.Count("ids.isolations", 1)
		if e.Action == IsolateAndRekey {
			e.rekeyCount++
			e.kernel.Count("ids.rekeys", 1)
		}
	}
}

// Summary renders the engine state for reports.
func (e *Engine) Summary() string {
	var isolated []string
	for id := range e.isolated {
		isolated = append(isolated, id)
	}
	sort.Strings(isolated)
	return fmt.Sprintf("alerts=%d isolated=%v rekeys=%d", len(e.alerts), isolated, e.rekeyCount)
}
