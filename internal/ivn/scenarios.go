package ivn

import (
	"fmt"

	"autosec/internal/canal"
	"autosec/internal/canbus"
	"autosec/internal/ethernet"
	"autosec/internal/macsec"
	"autosec/internal/secoc"
	"autosec/internal/sim"
)

// attackSeqBase marks attacker-originated sequence numbers so the
// central computer can classify what its security stack let through.
const attackSeqBase = uint32(1) << 31

// driver owns what every scenario shares: the kernel, the Result, the
// flow tracker, the central computer's verdict on each payload its
// stack lets through, and the schedule of the legitimate flow, the
// forgeries and the replays. A runner adds only its security stack and
// its zone medium.
type driver struct {
	cfg     Config
	k       *sim.Kernel
	res     Result
	tracker *flowTracker
	wire    wireMeter
}

func newDriver(cfg Config, scenario string) *driver {
	return &driver{cfg: cfg, k: cfg.newKernel(), res: Result{Scenario: scenario, Sent: cfg.Messages}, tracker: newFlowTracker()}
}

// uplink links the zone controller, whose frames from the central
// computer go to down, with the central computer, which classifies
// every payload unwrap lets through. unwrap returns nil for a frame
// the stack rejects.
func (d *driver) uplink(down func(*sim.Kernel, *ethernet.Frame), unwrap func(*ethernet.Frame) []byte) *ethernet.Link {
	cc := &ethernet.PortFunc{MAC: ccMAC, Fn: func(k *sim.Kernel, f *ethernet.Frame) {
		switch d.tracker.receive(k.Now(), unwrap(f)) {
		case forged:
			d.res.ForgeriesAccepted++
		case replayed:
			d.res.ReplaysAccepted++
		}
	}}
	l := ethernet.NewLink("zc-cc", backbone, d.k, &ethernet.PortFunc{MAC: zcUpMAC, Fn: down}, cc)
	d.wire.eth(l)
	return l
}

// zone is the zone medium as the driver sees it, with the frames the
// sender and the forger wrap message seq into. wrap and forge return
// nil when their stack cannot protect the message.
type zone[F interface{ Clone() F }] struct {
	sendEvent   string   // the sender's kernel event
	forgeOffset sim.Time // how far into each period a forgery goes out
	wrap, forge func(seq uint32) []F
	put         func(f F, attacker bool) // sends f from the sender or the attacker
	tap         func(func(F))
	fromSender  func(F) bool
}

// canZone is a CAN (XL) bus shared by the "ecu-1" sender and the
// "attacker" node.
func canZone(bus *canbus.Bus, forgeOffset sim.Time, wrap, forge func(uint32) []*canbus.Frame) zone[*canbus.Frame] {
	return zone[*canbus.Frame]{
		sendEvent: "ecu-send", forgeOffset: forgeOffset, wrap: wrap, forge: forge,
		put: func(f *canbus.Frame, attacker bool) {
			node := "ecu-1"
			if attacker {
				node = "attacker"
			}
			_ = bus.Send(node, f)
		},
		tap:        bus.Tap,
		fromSender: func(f *canbus.Frame) bool { return f.SourceID == "ecu-1" },
	}
}

// drive schedules the legitimate flow, the forgeries and, after the
// flow, the replay of the first cfg.Replays frames the sender put on z;
// then it runs the kernel.
func drive[F interface{ Clone() F }](d *driver, z zone[F]) (Result, error) {
	cfg, k := d.cfg, d.k
	var captured []F
	z.tap(func(f F) {
		if z.fromSender(f) && len(captured) < cfg.Replays {
			captured = append(captured, f.Clone())
		}
	})
	send := func(frames []F, attacker bool) {
		for _, f := range frames {
			z.put(f, attacker)
		}
	}
	period := sim.Time(cfg.PeriodUs) * sim.Microsecond
	for i := 0; i < cfg.Messages; i++ {
		seq := uint32(i + 1)
		k.Schedule(period*sim.Time(i+1), z.sendEvent, func(k *sim.Kernel) {
			if frames := z.wrap(seq); frames != nil {
				d.tracker.sent(seq, k.Now())
				send(frames, false)
			}
		})
	}
	for i := 0; i < cfg.Forgeries; i++ {
		seq := attackSeqBase + uint32(i)
		k.Schedule(period*sim.Time(i+1)+z.forgeOffset, "attack-forge", func(k *sim.Kernel) {
			if frames := z.forge(seq); frames != nil {
				d.res.ForgeriesAttempted++
				send(frames, true)
			}
		})
	}
	replayStart := period * sim.Time(cfg.Messages+2)
	for i := 0; i < cfg.Replays; i++ {
		k.Schedule(replayStart+period*sim.Time(i+1), "attack-replay", func(k *sim.Kernel) {
			if i < len(captured) {
				d.res.ReplaysAttempted++
				z.put(captured[i], true) // the medium sends a copy
			}
		})
	}

	if err := k.Run(0); err != nil {
		return d.res, err
	}
	r, t := &d.res, d.tracker
	r.Delivered = t.count()
	r.P50Us = t.p50()
	r.WireBytes = d.wire.total()
	r.AppBytes = t.appBytes
	if r.AppBytes > 0 {
		r.OverheadRatio = float64(r.WireBytes) / float64(r.AppBytes)
	}
	return d.res, nil
}

// RunBaseline builds the Fig. 3 topology with *no* security stack: raw
// CAN into a zone-controller gateway, raw Ethernet to the central
// computer. Every masquerade and replay succeeds — the starting point
// the paper's Table I protocols exist to fix.
func RunBaseline(cfg Config) (Result, error) {
	plain := func(p []byte) ([]byte, error) { return p, nil }
	return runGateway(newDriver(cfg, "baseline"), nil, nil, plain, plain, plain)
}

// RunS1 implements Fig. 4: SECOC protects the PDU end-to-end
// (ECU→central computer) while MACsec protects the zone-controller↔CC
// Ethernet hop. The zone controller carries MACsec session keys and
// performs security processing per message — the S1 costs the paper
// lists — and SECOC provides authenticity only.
func RunS1(cfg Config) (Result, error) {
	d := newDriver(cfg, "S1")
	secocCfg := secoc.DefaultConfig(0x0100)
	sender, err := secoc.NewSender(secocCfg, secocKey)
	if err != nil {
		return d.res, err
	}
	receiver, err := secoc.NewReceiver(secocCfg, secocKey)
	if err != nil {
		return d.res, err
	}
	forger, err := secoc.NewSender(secocCfg, wrongKey)
	if err != nil {
		return d.res, err
	}
	zcSecY, ccSecY, err := secYPair(zcUpMAC, ccMAC, hopSAKcc)
	if err != nil {
		return d.res, err
	}
	d.res.KeysAtZC = 2 // MACsec SAK + the CAK it was agreed from
	return runGateway(d, zcSecY, ccSecY, sender.Protect, forger.Protect, receiver.Verify)
}

// runGateway runs the CAN zone whose zone controller gateways each
// frame onto the Ethernet uplink, MACsec-protected from zcSecY to
// ccSecY when they are set. The sender and the forger protect their
// PDUs with protect and forge, and the central computer checks them
// with verify.
func runGateway(d *driver, zcSecY, ccSecY *macsec.SecY, protect, forge, verify func([]byte) ([]byte, error)) (Result, error) {
	bus := d.wire.can(canbus.NewBus("zone-l", canRates, d.k))
	zcToCC := d.uplink(nil, func(f *ethernet.Frame) []byte {
		payload := f.Payload
		if ccSecY != nil {
			if payload = opened(ccSecY, f); payload == nil {
				return nil // hop protection rejected the frame
			}
		}
		cf, err := canbus.Unmarshal(payload)
		if err != nil {
			return nil
		}
		if payload, err = verify(cf.Payload); err != nil {
			return nil // SECOC rejected: forgery or replay
		}
		return payload
	})
	bus.Attach(&canbus.NodeFunc{ID: "zc", Fn: func(k *sim.Kernel, f *canbus.Frame) {
		ef := &ethernet.Frame{Dst: ccMAC, Src: zcUpMAC, EtherType: ethernet.EtherTypeApp, Payload: f.Marshal()}
		if zcSecY != nil {
			sec, err := zcSecY.Protect(ef)
			if err != nil {
				return
			}
			d.res.CryptoOpsAtZC++
			ef = sec
		}
		_ = zcToCC.Send(zcUpMAC, ef)
	}})
	bus.Attach(&canbus.NodeFunc{ID: "ecu-1"})
	bus.Attach(&canbus.NodeFunc{ID: "attacker"})
	// Without authentication the masquerading attacker's frames, which
	// use the sender's identifier, are indistinguishable.
	frames := func(protect func([]byte) ([]byte, error)) func(uint32) []*canbus.Frame {
		return func(seq uint32) []*canbus.Frame { return one(canFrame(0x100, protect, seq, d.cfg.PayloadBytes)) }
	}
	return drive(d, canZone(bus, 37*sim.Microsecond, frames(protect), frames(forge)))
}

// S2Mode selects end-to-end (Fig. 5 ①) or point-to-point (Fig. 5 ②)
// MACsec deployment.
type S2Mode int

const (
	// S2EndToEnd runs one MACsec channel endpoint↔CC; the zone
	// controller forwards ciphertext and stores no keys.
	S2EndToEnd S2Mode = iota
	// S2PointToPoint runs MACsec per hop; the zone controller verifies
	// and re-protects every frame and stores a key per hop.
	S2PointToPoint
)

// RunS2 implements Fig. 5: a homogeneous Ethernet path — endpoint on a
// 10BASE-T1S multidrop segment, zone controller, central computer.
func RunS2(cfg Config, mode S2Mode) (Result, error) {
	name := "S2-e2e"
	if mode == S2PointToPoint {
		name = "S2-p2p"
	}
	d := newDriver(cfg, name)

	var epSecY, zcDownSecY, zcUpSecY, ccSecY *macsec.SecY
	var err error
	switch mode {
	case S2EndToEnd:
		epSecY, ccSecY, err = secYPair(epMAC, ccMAC, e2eSAK)
	case S2PointToPoint:
		if epSecY, zcDownSecY, err = secYPair(epMAC, zcUpMAC, hopSAKzc); err == nil {
			zcUpSecY, ccSecY, err = secYPair(zcUpMAC, ccMAC, hopSAKcc)
		}
		d.res.KeysAtZC = 2
	}
	if err != nil {
		return d.res, err
	}
	attSecY, err := macsec.NewSecY(macsec.Confidential, macsec.SCIFromMAC(attMAC, 1), wrongSAK, 0)
	if err != nil {
		return d.res, err
	}

	zcToCC := d.uplink(nil, func(f *ethernet.Frame) []byte { return opened(ccSecY, f) })
	seg := ethernet.NewMultidrop("zone-r", d.k)
	d.wire.eth(seg)
	seg.Attach(&ethernet.PortFunc{MAC: zcMAC, Fn: func(k *sim.Kernel, f *ethernet.Frame) {
		if mode == S2EndToEnd {
			// Forward ciphertext unchanged; the paper notes this also
			// means the intermediate cannot rewrite header fields.
			_ = zcToCC.Send(zcUpMAC, f.Clone())
			return
		}
		inner, err := zcDownSecY.Verify(f)
		if err != nil {
			return
		}
		d.res.CryptoOpsAtZC++
		up := &ethernet.Frame{Dst: ccMAC, Src: zcUpMAC, EtherType: inner.EtherType, Payload: inner.Payload}
		sec, err := zcUpSecY.Protect(up)
		if err != nil {
			return
		}
		d.res.CryptoOpsAtZC++
		_ = zcToCC.Send(zcUpMAC, sec)
	}})
	epID := seg.Attach(&ethernet.PortFunc{MAC: epMAC})
	attID := seg.Attach(&ethernet.PortFunc{MAC: attMAC})

	frames := func(y *macsec.SecY, src ethernet.MAC) func(uint32) []*ethernet.Frame {
		return func(seq uint32) []*ethernet.Frame { return one(seal(y, src, seq, cfg.PayloadBytes)) }
	}
	return drive(d, zone[*ethernet.Frame]{
		sendEvent: "ep-send", forgeOffset: 23 * sim.Microsecond,
		wrap: frames(epSecY, epMAC), forge: frames(attSecY, attMAC),
		put: func(f *ethernet.Frame, attacker bool) {
			id := epID
			if attacker {
				id = attID
			}
			_ = seg.Send(id, f)
		},
		tap:        seg.Tap,
		fromSender: func(f *ethernet.Frame) bool { return f.Src == epMAC },
	})
}

// RunS3 implements Fig. 6: the endpoint sits on CAN XL, but MACsec and
// MKA run end-to-end between the endpoint and the central computer
// through the CAN Adaptation Layer. The zone controller reassembles and
// forwards tunnelled Ethernet frames without holding any keys.
func RunS3(cfg Config) (Result, error) {
	d := newDriver(cfg, "S3")

	// --- MKA over the tunnel establishes the end-to-end SAK. ---
	ccPart, err := macsec.NewParticipant("cc", "canal-ca", linkCAK, 1)
	if err != nil {
		return d.res, err
	}
	ecuPart, err := macsec.NewParticipant("ecu", "canal-ca", linkCAK, 10)
	if err != nil {
		return d.res, err
	}

	sciECU := macsec.SCIFromMAC(ecuMAC, 1)
	sciCC := macsec.SCIFromMAC(ccMAC, 1)
	var ecuSecY, ccSecY *macsec.SecY

	// Adapters: one per tunnel endpoint plus the ZC's two gateways.
	ecuAdapter := canal.NewAdapter(1, canbus.XL, 0x180)
	zcUpAdapter := canal.NewAdapter(1, canbus.XL, 0x180)   // reassembles ECU→CC
	zcDownAdapter := canal.NewAdapter(1, canbus.XL, 0x181) // segments CC→ECU
	ecuDownAdapter := canal.NewAdapter(1, canbus.XL, 0x181)
	attAdapter := canal.NewAdapter(1, canbus.XL, 0x180)

	attSecY, err := macsec.NewSecY(macsec.Confidential, macsec.SCIFromMAC(attMAC, 1), wrongSAK, 0)
	if err != nil {
		return d.res, err
	}

	bus := d.wire.can(canbus.NewBus("zone-xl", xlRates, d.k))
	zcToCC := d.uplink(func(k *sim.Kernel, f *ethernet.Frame) {
		// CC → ECU direction: segment into the tunnel.
		segs, err := zcDownAdapter.Segment(f)
		if err != nil {
			return
		}
		for _, s := range segs {
			_ = bus.Send("zc", s)
		}
	}, func(f *ethernet.Frame) []byte {
		if f.EtherType != ethernet.EtherTypeMACsec || ccSecY == nil {
			return nil
		}
		return opened(ccSecY, f)
	})

	// Zone controller on the CAN XL bus: reassemble uplink tunnels.
	bus.Attach(&canbus.NodeFunc{ID: "zc", Fn: func(k *sim.Kernel, f *canbus.Frame) {
		ef, err := zcUpAdapter.Accept(f)
		if err != nil || ef == nil {
			return
		}
		_ = zcToCC.Send(zcUpMAC, ef)
	}})

	// ECU node: receives downlink tunnel segments (MKA distribution).
	bus.Attach(&canbus.NodeFunc{ID: "ecu-1", Fn: func(k *sim.Kernel, f *canbus.Frame) {
		ef, err := ecuDownAdapter.Accept(f)
		if err != nil || ef == nil {
			return
		}
		if ef.EtherType == ethernet.EtherTypeMKA {
			pdu, err := macsec.UnmarshalMKPDU(ef.Payload)
			if err != nil {
				return
			}
			if err := ecuPart.AcceptSAK(pdu); err != nil {
				return
			}
			ecuSecY, err = macsec.NewSecY(macsec.Confidential, sciECU, ecuPart.SAK(), 0)
			if err != nil {
				return
			}
			_ = ecuSecY.AddPeer(sciCC, ecuPart.SAK(), 0)
		}
	}})
	bus.Attach(&canbus.NodeFunc{ID: "attacker"})

	// Key server distributes the SAK at t=0 through the tunnel.
	d.k.Schedule(0, "mka-distribute", func(k *sim.Kernel) {
		pdu, err := ccPart.DistributeSAK(1)
		if err != nil {
			return
		}
		var mkErr error
		ccSecY, mkErr = macsec.NewSecY(macsec.Confidential, sciCC, ccPart.SAK(), 0)
		if mkErr != nil {
			return
		}
		_ = ccSecY.AddPeer(sciECU, ccPart.SAK(), 0)
		ef := &ethernet.Frame{Dst: ecuMAC, Src: ccMAC, EtherType: ethernet.EtherTypeMKA, Payload: pdu.Marshal()}
		// CC reaches the zone through its link; the link callback
		// segments into the downlink tunnel.
		_ = zcToCC.Send(ccMAC, ef)
	})

	// tunnel seals message seq from src under y and segments it into
	// CAN XL frames with a.
	tunnel := func(y *macsec.SecY, src ethernet.MAC, a *canal.Adapter, seq uint32) []*canbus.Frame {
		sec := seal(y, src, seq, cfg.PayloadBytes)
		if sec == nil {
			return nil
		}
		segs, err := a.Segment(sec)
		if err != nil {
			return nil
		}
		return segs
	}
	wrap := func(seq uint32) []*canbus.Frame {
		if ecuSecY == nil {
			return nil // SAK not yet installed
		}
		return tunnel(ecuSecY, ecuMAC, ecuAdapter, seq)
	}
	forge := func(seq uint32) []*canbus.Frame { return tunnel(attSecY, attMAC, attAdapter, seq) }
	return drive(d, canZone(bus, 23*sim.Microsecond, wrap, forge))
}

// secYPair builds a MACsec channel from one MAC to another on sak: a
// sending SecY, and a receiving SecY with the sender as its peer.
func secYPair(from, to ethernet.MAC, sak []byte) (tx, rx *macsec.SecY, err error) {
	sci := macsec.SCIFromMAC(from, 1)
	if tx, err = macsec.NewSecY(macsec.Confidential, sci, sak, 0); err != nil {
		return nil, nil, err
	}
	if rx, err = macsec.NewSecY(macsec.Confidential, macsec.SCIFromMAC(to, 1), sak, 0); err != nil {
		return nil, nil, err
	}
	return tx, rx, rx.AddPeer(sci, sak, 0)
}

// seal carries message seq from src to the central computer in an
// Ethernet frame protected by y; nil if y cannot protect it.
func seal(y *macsec.SecY, src ethernet.MAC, seq uint32, size int) *ethernet.Frame {
	sec, err := y.Protect(&ethernet.Frame{Dst: ccMAC, Src: src, EtherType: ethernet.EtherTypeApp, Payload: payloadWithSeq(seq, size)})
	if err != nil {
		return nil
	}
	return sec
}

// opened is the payload y verifies f to carry; nil if y rejects f.
func opened(y *macsec.SecY, f *ethernet.Frame) []byte {
	inner, err := y.Verify(f)
	if err != nil {
		return nil
	}
	return inner.Payload
}

// canFrame carries message seq, protected by protect, in a classic CAN
// frame with identifier id; nil if protect fails.
func canFrame(id uint32, protect func([]byte) ([]byte, error), seq uint32, size int) *canbus.Frame {
	pdu, err := protect(payloadWithSeq(seq, size))
	if err != nil {
		return nil
	}
	return &canbus.Frame{ID: id, Format: canbus.Classic, Payload: pdu}
}

// one is the message carried in frame f, or no message if f is nil.
func one[F comparable](f F) []F {
	var none F
	if f == none {
		return nil
	}
	return []F{f}
}

// RunAll executes baseline, S1, S2 (both modes), and S3 with the same
// workload and returns the results in presentation order.
func RunAll(cfg Config) ([]Result, error) {
	var out []Result
	runners := []func(Config) (Result, error){
		RunBaseline,
		RunS1,
		func(c Config) (Result, error) { return RunS2(c, S2EndToEnd) },
		func(c Config) (Result, error) { return RunS2(c, S2PointToPoint) },
		RunS3,
	}
	for _, run := range runners {
		r, err := run(cfg)
		if err != nil {
			return out, fmt.Errorf("ivn: %s: %w", r.Scenario, err)
		}
		out = append(out, r)
	}
	return out, nil
}
