// Package ivn composes the in-vehicle network of the paper's Fig. 3 —
// a central computing unit, zone controllers, and endpoints attached
// via CAN or 10BASE-T1S — and implements the three security-stack
// scenarios of §III-A:
//
//	S1 (Fig. 4): AUTOSAR SECOC end-to-end over CAN, MACsec on the
//	    zone-controller↔central-computing Ethernet hop.
//	S2 (Fig. 5): homogeneous Ethernet; MACsec either end-to-end or
//	    point-to-point per hop.
//	S3 (Fig. 6): CANAL tunnels Ethernet+MACsec end-to-end across CAN XL,
//	    with MKA key agreement.
//
// Each scenario runner builds the topology on a fresh kernel, drives a
// periodic sensor flow from an endpoint to the central computer, lets a
// compromised node attempt forgery and replay, and reports latency,
// wire overhead, key storage, and crypto-processing load — the
// quantities behind the trade-offs the paper describes qualitatively.
//
// Exercised by experiments fig3-fig6, exp-vehicle, exp-zc, and ablate-
// scale.
package ivn

import (
	"encoding/binary"
	"fmt"
	"sort"

	"autosec/internal/canbus"
	"autosec/internal/ethernet"
	"autosec/internal/sim"
	"autosec/internal/vcrypto"
)

// Config drives a scenario run.
type Config struct {
	Seed     int64
	Messages int   // legitimate messages end-to-end
	PeriodUs int64 // sending period
	// PayloadBytes is the application payload size (clamped to what the
	// scenario's lowest-layer frame can carry).
	PayloadBytes int
	// Forgeries is the number of attacker injection attempts.
	Forgeries int
	// Replays is the number of attacker replay attempts (captured
	// legitimate traffic re-sent).
	Replays int
	// Tracer, when non-nil, is attached to the scenario's simulation
	// kernel so scheduled/executed events, counters and samples land in
	// the run's structured trace.
	Tracer sim.Tracer
}

// newKernel builds the scenario kernel, attaching the configured tracer.
func (cfg Config) newKernel() *sim.Kernel {
	k := sim.NewKernel(cfg.Seed)
	if cfg.Tracer != nil {
		k.SetTracer(cfg.Tracer)
	}
	return k
}

// DefaultConfig returns the workload used by the Fig. 4–6 experiments.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Messages: 200, PeriodUs: 500, PayloadBytes: 4, Forgeries: 50, Replays: 50}
}

// Result summarizes one scenario run.
type Result struct {
	Scenario  string
	Delivered int
	Sent      int

	// P50Us is the median end-to-end latency of delivered messages.
	P50Us float64

	// WireBytes is the total bytes that crossed any medium; AppBytes is
	// the useful application payload delivered. OverheadRatio is
	// wire/app.
	WireBytes     int64
	AppBytes      int64
	OverheadRatio float64

	// KeysAtZC counts long-term/session keys the zone controller must
	// store; CryptoOpsAtZC counts per-message protect/verify operations
	// it performs (the "security processing" burden of S1/S2-p2p).
	KeysAtZC      int
	CryptoOpsAtZC int

	ForgeriesAttempted int
	ForgeriesAccepted  int
	ReplaysAttempted   int
	ReplaysAccepted    int
}

// String renders a compact report line.
func (r Result) String() string {
	return fmt.Sprintf("%-12s delivered=%d/%d lat(p50)=%.1fµs overhead=%.2fx keysZC=%d opsZC=%d forged=%d/%d replayed=%d/%d",
		r.Scenario, r.Delivered, r.Sent, r.P50Us, r.OverheadRatio,
		r.KeysAtZC, r.CryptoOpsAtZC,
		r.ForgeriesAccepted, r.ForgeriesAttempted, r.ReplaysAccepted, r.ReplaysAttempted)
}

// common keys for the simulated vehicle; a real vehicle provisions these
// per pairing, here they are fixture constants derived from one root.
var (
	rootKey   = []byte("vehicle-root-provisioning-secret")
	secocKey  = vcrypto.DeriveKey(rootKey, "secoc", "ecu1-cc", 16)
	linkCAK   = vcrypto.DeriveKey(rootKey, "mka-cak", "backbone", 16)
	wrongKey  = vcrypto.DeriveKey(rootKey, "attacker", "guess", 16)
	e2eSAK    = vcrypto.DeriveKey(rootKey, "macsec-sak", "ep-cc", 16)
	hopSAKzc  = vcrypto.DeriveKey(rootKey, "macsec-sak", "ep-zc", 16)
	hopSAKcc  = vcrypto.DeriveKey(rootKey, "macsec-sak", "zc-cc", 16)
	wrongSAK  = vcrypto.DeriveKey(rootKey, "attacker-sak", "guess", 16)
	ecuMAC    = ethernet.MAC{0x02, 0, 0, 0, 0, 0x10}
	epMAC     = ethernet.MAC{0x02, 0, 0, 0, 0, 0x20}
	attMAC    = ethernet.MAC{0x02, 0, 0, 0, 0, 0x66}
	zcMAC     = ethernet.MAC{0x02, 0, 0, 0, 0, 0x01}
	zcUpMAC   = ethernet.MAC{0x02, 0, 0, 0, 0, 0x02}
	ccMAC     = ethernet.MAC{0x02, 0, 0, 0, 0, 0xCC}
	backbone  = int64(1_000_000_000) // 1 Gbit/s ZC↔CC links
	canRates  = canbus.DefaultBitRates()
	xlRates   = canbus.BitRates{NominalBps: 500_000, DataBps: 10_000_000}
	seqHeader = 4 // every app payload starts with a uint32 sequence
)

// flowTracker correlates sent sequence numbers with receive times.
type flowTracker struct {
	sendTime map[uint32]sim.Time
	received map[uint32]bool
	lat      []float64
	appBytes int64
}

func newFlowTracker() *flowTracker {
	return &flowTracker{sendTime: make(map[uint32]sim.Time), received: make(map[uint32]bool)}
}

func (t *flowTracker) sent(seq uint32, at sim.Time) { t.sendTime[seq] = at }

// verdict is the central computer's reading of a payload its security
// stack let through.
type verdict int

const (
	other    verdict = iota // recorded as a delivery if it was sent
	forged                  // an attacker-originated sequence number
	replayed                // a legitimate message received before
)

// receive classifies payload, arriving at at, and records a first
// delivery of a sent message.
func (t *flowTracker) receive(at sim.Time, payload []byte) verdict {
	seq, ok := seqOf(payload)
	switch {
	case !ok:
		return other
	case seq >= attackSeqBase:
		return forged
	case t.received[seq]:
		return replayed
	}
	if sent, ok := t.sendTime[seq]; ok {
		t.received[seq] = true
		t.lat = append(t.lat, float64(at-sent)/float64(sim.Microsecond))
		t.appBytes += int64(len(payload))
	}
	return other
}

func (t *flowTracker) count() int { return len(t.lat) }

// stats reports the tracker as flow name; every sent message has its
// own sequence number.
func (t *flowTracker) stats(name string) FlowStats {
	return FlowStats{Name: name, Sent: len(t.sendTime), Delivered: t.count(), P50Us: t.p50()}
}

// p50 is the median delivery latency in µs (the lower middle sample of
// an even count), or 0 with no deliveries.
func (t *flowTracker) p50() float64 {
	if len(t.lat) == 0 {
		return 0
	}
	sorted := append([]float64(nil), t.lat...)
	sort.Float64s(sorted)
	return sorted[int(0.5*float64(len(sorted)-1))]
}

func payloadWithSeq(seq uint32, size int) []byte {
	if size < seqHeader {
		size = seqHeader
	}
	p := make([]byte, size)
	binary.BigEndian.PutUint32(p, seq)
	return p
}

func seqOf(payload []byte) (uint32, bool) {
	if len(payload) < seqHeader {
		return 0, false
	}
	return binary.BigEndian.Uint32(payload), true
}

// wireMeter totals the bytes that cross the media it watches: every
// frame an Ethernet link or T1S segment delivers, plus each CAN bus's
// delivered bits divided by 8 per bus.
type wireMeter struct {
	bytes   int64
	canBits []int64 // one total per watched bus
}

// can watches bus b and returns it.
func (w *wireMeter) can(b *canbus.Bus) *canbus.Bus {
	i := len(w.canBits)
	w.canBits = append(w.canBits, 0)
	b.Tap(func(f *canbus.Frame) { w.canBits[i] += int64(f.WireBits()) })
	return b
}

// eth watches an Ethernet link or T1S segment.
func (w *wireMeter) eth(m interface{ Tap(func(*ethernet.Frame)) }) {
	m.Tap(func(f *ethernet.Frame) { w.bytes += int64(f.WireBytes()) })
}

// total is the wire bytes delivered so far.
func (w *wireMeter) total() int64 {
	total := w.bytes
	for _, bits := range w.canBits {
		total += bits / 8
	}
	return total
}
