package ivn

import (
	"fmt"

	"autosec/internal/canbus"
	"autosec/internal/ethernet"
	"autosec/internal/macsec"
	"autosec/internal/secoc"
	"autosec/internal/sim"
	"autosec/internal/vcrypto"
)

// This file runs the *whole* Fig. 3 vehicle at once — both zones live on
// one kernel with concurrent flows, including a cross-zone flow routed
// through the central computer — rather than one scenario in isolation.
// It is the integration fixture for the network layer: CAN zone with
// SECOC (the S1 stack), 10BASE-T1S zone with end-to-end MACsec (the S2
// stack), and attackers on both buses at the same time.

// FlowStats summarizes one application flow.
type FlowStats struct {
	Name      string
	Sent      int
	Delivered int
	P50Us     float64
}

// VehicleResult is the combined run outcome.
type VehicleResult struct {
	Flows []FlowStats
	// Attack outcomes across both zones.
	ForgeriesAttempted, ForgeriesAccepted int
	WireBytes                             int64
}

// RunFullVehicle executes the combined topology for cfg.Messages
// messages per flow.
func RunFullVehicle(cfg Config) (*VehicleResult, error) {
	k := cfg.newKernel()
	res := &VehicleResult{}

	flowCAN, flowT1S, flowCross := newFlowTracker(), newFlowTracker(), newFlowTracker()
	// accept files a payload the receiver's stack let through on flow t.
	accept := func(t *flowTracker, at sim.Time, payload []byte) {
		if t.receive(at, payload) == forged {
			res.ForgeriesAccepted++
		}
	}

	// --- keys ---
	secocCC, err := secoc.NewSender(secoc.DefaultConfig(0x0100), secocKey)
	if err != nil {
		return nil, err
	}
	recvCC, err := secoc.NewReceiver(secoc.DefaultConfig(0x0100), secocKey)
	if err != nil {
		return nil, err
	}
	crossKey := vcrypto.DeriveKey(rootKey, "secoc", "ecu2-ep2", 16)
	crossSend, err := secoc.NewSender(secoc.DefaultConfig(0x0200), crossKey)
	if err != nil {
		return nil, err
	}
	crossRecv, err := secoc.NewReceiver(secoc.DefaultConfig(0x0200), crossKey)
	if err != nil {
		return nil, err
	}
	forger, err := secoc.NewSender(secoc.DefaultConfig(0x0100), wrongKey)
	if err != nil {
		return nil, err
	}

	zclSecY, ccHopSecY, err := secYPair(zcUpMAC, ccMAC, hopSAKcc)
	if err != nil {
		return nil, err
	}
	epSecY, ccE2ESecY, err := secYPair(epMAC, ccMAC, e2eSAK)
	if err != nil {
		return nil, err
	}
	attSecY, err := macsec.NewSecY(macsec.Confidential, macsec.SCIFromMAC(attMAC, 1), wrongSAK, 0)
	if err != nil {
		return nil, err
	}

	// --- topology: zone L (CAN) ---
	var wire wireMeter
	busL := wire.can(canbus.NewBus("zone-l", canRates, k))

	// --- topology: zone R (10BASE-T1S) ---
	segR := ethernet.NewMultidrop("zone-r", k)
	wire.eth(segR)

	// --- central computer and its two links ---
	var linkL, linkR *ethernet.Link
	var zcRDownID int

	cc := &ethernet.PortFunc{MAC: ccMAC, Fn: func(k *sim.Kernel, f *ethernet.Frame) {
		if f.EtherType != ethernet.EtherTypeMACsec {
			return
		}
		// Try the zone-L hop channel first, then the e2e channel.
		if inner, err := ccHopSecY.Verify(f); err == nil {
			cf, err := canbus.Unmarshal(inner.Payload)
			if err != nil {
				return
			}
			switch cf.ID {
			case 0x100: // ecu1 → CC
				if payload, err := recvCC.Verify(cf.Payload); err == nil {
					accept(flowCAN, k.Now(), payload)
				}
			case 0x200: // ecu2 → ep2, routed onward into zone R
				fwd := &ethernet.Frame{Dst: epMAC, Src: ccMAC, EtherType: ethernet.EtherTypeApp, Payload: cf.Payload}
				_ = linkR.Send(ccMAC, fwd)
			}
			return
		}
		if inner, err := ccE2ESecY.Verify(f); err == nil {
			accept(flowT1S, k.Now(), inner.Payload)
		}
	}}

	zcLUp := &ethernet.PortFunc{MAC: zcUpMAC}
	linkL = ethernet.NewLink("zcl-cc", backbone, k, zcLUp, cc)
	wire.eth(linkL)

	// Zone controller L: CAN → MACsec'd Ethernet uplink.
	busL.Attach(&canbus.NodeFunc{ID: "zc-l", Fn: func(k *sim.Kernel, f *canbus.Frame) {
		ef := &ethernet.Frame{Dst: ccMAC, Src: zcUpMAC, EtherType: ethernet.EtherTypeApp, Payload: f.Marshal()}
		sec, err := zclSecY.Protect(ef)
		if err != nil {
			return
		}
		_ = linkL.Send(zcUpMAC, sec)
	}})
	busL.Attach(&canbus.NodeFunc{ID: "ecu-1"})
	busL.Attach(&canbus.NodeFunc{ID: "ecu-2"})
	busL.Attach(&canbus.NodeFunc{ID: "attacker-l"})

	// Zone controller R bridges the CC link and the multidrop.
	zcRUp := &ethernet.PortFunc{MAC: zcUpMAC, Fn: func(k *sim.Kernel, f *ethernet.Frame) {
		// CC → zone R: forward onto the multidrop.
		_ = segR.Send(zcRDownID, f)
	}}
	linkR = ethernet.NewLink("zcr-cc", backbone, k, zcRUp, cc)
	wire.eth(linkR)
	zcRDown := &ethernet.PortFunc{MAC: zcMAC, Fn: func(k *sim.Kernel, f *ethernet.Frame) {
		// Zone R → CC: forward ciphertext unchanged (e2e).
		if f.Dst == ccMAC {
			_ = linkR.Send(zcUpMAC, f)
		}
	}}
	zcRDownID = segR.Attach(zcRDown)

	// Endpoint ep2 receives the routed cross-zone flow.
	ep2 := &ethernet.PortFunc{MAC: epMAC, Fn: func(k *sim.Kernel, f *ethernet.Frame) {
		if f.EtherType != ethernet.EtherTypeApp || f.Dst != epMAC {
			return
		}
		if payload, err := crossRecv.Verify(f.Payload); err == nil {
			accept(flowCross, k.Now(), payload)
		}
	}}
	epID := segR.Attach(ep2)
	attRID := segR.Attach(&ethernet.PortFunc{MAC: attMAC})

	// --- workload ---
	period := sim.Time(cfg.PeriodUs) * sim.Microsecond
	for i := 0; i < cfg.Messages; i++ {
		seq := uint32(i + 1)
		// Flow 1: ecu1 → CC over CAN (SECOC).
		k.Schedule(period*sim.Time(i+1), "ecu1-send", func(k *sim.Kernel) {
			if f := canFrame(0x100, secocCC.Protect, seq, cfg.PayloadBytes); f != nil {
				flowCAN.sent(seq, k.Now())
				_ = busL.Send("ecu-1", f)
			}
		})
		// Flow 2: ep1 → CC over T1S (MACsec e2e). ep1 shares the epMAC
		// port for simplicity; a separate flow tracker keeps it honest.
		k.Schedule(period*sim.Time(i+1)+50*sim.Microsecond, "ep1-send", func(k *sim.Kernel) {
			if sec := seal(epSecY, epMAC, seq, cfg.PayloadBytes); sec != nil {
				flowT1S.sent(seq, k.Now())
				_ = segR.Send(epID, sec)
			}
		})
		// Flow 3: ecu2 → ep2 cross-zone (SECOC e2e, routed by CC).
		k.Schedule(period*sim.Time(i+1)+100*sim.Microsecond, "ecu2-send", func(k *sim.Kernel) {
			if f := canFrame(0x200, crossSend.Protect, seq, cfg.PayloadBytes); f != nil {
				flowCross.sent(seq, k.Now())
				_ = busL.Send("ecu-2", f)
			}
		})
	}
	// Attacks on both zones concurrently.
	for i := 0; i < cfg.Forgeries; i++ {
		seq := attackSeqBase + uint32(i)
		k.Schedule(period*sim.Time(i+1)+30*sim.Microsecond, "forge-can", func(k *sim.Kernel) {
			if f := canFrame(0x100, forger.Protect, seq, cfg.PayloadBytes); f != nil {
				res.ForgeriesAttempted++
				_ = busL.Send("attacker-l", f)
			}
		})
		k.Schedule(period*sim.Time(i+1)+60*sim.Microsecond, "forge-t1s", func(k *sim.Kernel) {
			if sec := seal(attSecY, attMAC, seq, cfg.PayloadBytes); sec != nil {
				res.ForgeriesAttempted++
				_ = segR.Send(attRID, sec)
			}
		})
	}

	if err := k.Run(0); err != nil {
		return nil, err
	}
	res.Flows = []FlowStats{
		flowCAN.stats("ecu1→cc (SECOC+MACsec)"),
		flowT1S.stats("ep1→cc (MACsec e2e)"),
		flowCross.stats("ecu2→ep2 (SECOC e2e via CC)"),
	}
	res.WireBytes = wire.total()
	return res, nil
}

// String renders the combined result.
func (r *VehicleResult) String() string {
	out := ""
	for _, f := range r.Flows {
		out += fmt.Sprintf("%-28s %d/%d delivered, p50 %.1f µs\n", f.Name, f.Delivered, f.Sent, f.P50Us)
	}
	out += fmt.Sprintf("forgeries accepted: %d/%d; total wire bytes: %d\n",
		r.ForgeriesAccepted, r.ForgeriesAttempted, r.WireBytes)
	return out
}
