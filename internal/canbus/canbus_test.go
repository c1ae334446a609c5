package canbus

import (
	"bytes"
	"testing"
	"testing/quick"

	"autosec/internal/sim"
)

func TestFormatMaxPayload(t *testing.T) {
	cases := map[Format]int{Classic: 8, FD: 64, XL: 2048}
	for f, want := range cases {
		if got := f.MaxPayload(); got != want {
			t.Errorf("%v.MaxPayload() = %d, want %d", f, got, want)
		}
	}
}

func TestFrameValidate(t *testing.T) {
	good := &Frame{ID: 0x123, Format: Classic, Payload: make([]byte, 8)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid frame rejected: %v", err)
	}
	tooBig := &Frame{ID: 0x123, Format: Classic, Payload: make([]byte, 9)}
	if err := tooBig.Validate(); err == nil {
		t.Error("oversize classic payload accepted")
	}
	badID := &Frame{ID: 0x800, Format: FD}
	if err := badID.Validate(); err == nil {
		t.Error("12-bit identifier accepted")
	}
	xl := &Frame{ID: 0x100, Format: XL, Payload: make([]byte, 2048)}
	if err := xl.Validate(); err != nil {
		t.Errorf("2048-byte XL frame rejected: %v", err)
	}
}

func TestFrameMarshalRoundTrip(t *testing.T) {
	f := &Frame{ID: 0x2A5, Format: XL, SDUType: SDUEthernet, Payload: []byte("tunnelled ethernet bytes")}
	got, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != f.ID || got.Format != f.Format || got.SDUType != f.SDUType || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestFrameMarshalPropertyRoundTrip(t *testing.T) {
	f := func(id uint16, payload []byte) bool {
		if len(payload) > 64 {
			payload = payload[:64]
		}
		orig := &Frame{ID: uint32(id % 0x800), Format: FD, Payload: payload}
		got, err := Unmarshal(orig.Marshal())
		return err == nil && got.ID == orig.ID && bytes.Equal(got.Payload, orig.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer accepted")
	}
	f := &Frame{ID: 1, Format: Classic, Payload: []byte{1, 2, 3, 4}}
	data := f.Marshal()
	if _, err := Unmarshal(data[:len(data)-2]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestWireBitsMonotoneInPayload(t *testing.T) {
	for _, format := range []Format{Classic, FD, XL} {
		prev := 0
		for n := 0; n <= format.MaxPayload(); n += 8 {
			f := &Frame{ID: 1, Format: format, Payload: make([]byte, n)}
			bits := f.WireBits()
			if bits <= prev && n > 0 {
				t.Errorf("%v: WireBits not increasing at %d bytes", format, n)
			}
			prev = bits
		}
	}
}

func TestXLAmortizesHeaderOverhead(t *testing.T) {
	// Per-byte cost of a full XL frame must be far below classic CAN's.
	classic := &Frame{ID: 1, Format: Classic, Payload: make([]byte, 8)}
	xl := &Frame{ID: 1, Format: XL, Payload: make([]byte, 2048)}
	classicPerByte := float64(classic.WireBits()) / 8
	xlPerByte := float64(xl.WireBits()) / 2048
	if xlPerByte > classicPerByte/1.2 {
		t.Errorf("XL per-byte %.2f bits vs classic %.2f bits", xlPerByte, classicPerByte)
	}
}

func TestBusDeliversToAllButSender(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus("b", DefaultBitRates(), k)
	got := map[string]int{}
	for _, id := range []string{"a", "b", "c"} {
		id := id
		b.Attach(&NodeFunc{ID: id, Fn: func(_ *sim.Kernel, f *Frame) { got[id]++ }})
	}
	if err := b.Send("a", &Frame{ID: 0x10, Format: Classic, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got["a"] != 0 || got["b"] != 1 || got["c"] != 1 {
		t.Errorf("delivery = %v", got)
	}
}

func TestBusArbitrationPriorityOrder(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus("b", DefaultBitRates(), k)
	var order []uint32
	b.Attach(&NodeFunc{ID: "rx", Fn: func(_ *sim.Kernel, f *Frame) { order = append(order, f.ID) }})
	// Queue three frames "simultaneously"; despite send order the bus
	// must deliver by identifier priority after the first wins.
	k.Schedule(0, "enqueue", func(k *sim.Kernel) {
		_ = b.Send("n1", &Frame{ID: 0x300, Format: Classic, Payload: []byte{1}})
		_ = b.Send("n2", &Frame{ID: 0x100, Format: Classic, Payload: []byte{2}})
		_ = b.Send("n3", &Frame{ID: 0x200, Format: Classic, Payload: []byte{3}})
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// First send grabbed the idle bus (0x300), then priority order.
	want := []uint32{0x300, 0x100, 0x200}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

func TestBusLatencyAccountsForWireTime(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus("b", DefaultBitRates(), k)
	b.Attach(&NodeFunc{ID: "rx"})
	var doneAt sim.Time
	b.Tap(func(f *Frame) { doneAt = k.Now() })
	if err := b.Send("tx", &Frame{ID: 1, Format: Classic, Payload: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// 8-byte classic frame ≈ 118 bits at 500 kbit/s ≈ 237 µs.
	if doneAt < 150*sim.Microsecond || doneAt > 400*sim.Microsecond {
		t.Errorf("wire time %v outside plausible classic CAN range", doneAt)
	}
}

func TestMasqueradeIsIndistinguishableOnWire(t *testing.T) {
	// The §III vulnerability: receivers accept the attacker's frame as
	// the engine controller's, because nothing on the wire names the
	// sender.
	k := sim.NewKernel(1)
	counters := counterTotals{}
	k.SetTracer(counters)
	b := NewBus("b", DefaultBitRates(), k)
	var seen []*Frame
	b.Attach(&NodeFunc{ID: "brake-ecu", Fn: func(_ *sim.Kernel, f *Frame) { seen = append(seen, f) }})
	const engineID = 0x0C0
	(&Masquerader{
		Bus: b, NodeName: "infotainment", TargetID: engineID,
		Format: Classic, Payload: []byte{0xFF, 0xFF}, PeriodUs: 100, Count: 5,
	}).Start(k)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("delivered %d frames, want 5", len(seen))
	}
	for _, f := range seen {
		if f.ID != engineID {
			t.Errorf("frame ID %#x", f.ID)
		}
		// Ground truth says infotainment, but the receiving ECU has no
		// wire-level field to check — the ID is the only "identity".
		if f.SourceID != "infotainment" {
			t.Errorf("ground truth = %q", f.SourceID)
		}
	}
	if counters["attack.masquerade.injected"] != 5 {
		t.Error("attack counter not traced")
	}
}

// counterTotals is a tracer that sums every traced counter by name.
type counterTotals map[string]float64

func (c counterTotals) Trace(ev sim.TraceEvent) {
	if ev.Kind == "counter" {
		c[ev.Name] += ev.Value
	}
}

func TestFloodStarvesLowPriorityTraffic(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus("b", DefaultBitRates(), k)
	var victimDelivered []sim.Time
	b.Tap(func(f *Frame) {
		if f.ID == 0x400 {
			victimDelivered = append(victimDelivered, k.Now())
		}
	})
	b.Attach(&NodeFunc{ID: "rx"})
	// Legitimate node sends one frame at t=1ms.
	k.Schedule(sim.Millisecond, "victim-send", func(k *sim.Kernel) {
		_ = b.Send("victim", &Frame{ID: 0x400, Format: Classic, Payload: make([]byte, 8)})
	})
	// Flood from t=0 with a period shorter than a frame's wire time, so
	// the queue always holds a higher-priority frame.
	(&Flooder{Bus: b, NodeName: "attacker", Format: Classic, PeriodUs: 100, Count: 100}).Start(k)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(victimDelivered) != 1 {
		t.Fatalf("victim frame delivered %d times", len(victimDelivered))
	}
	// Without the flood the frame would complete ~240µs after 1ms. The
	// flood (100 frames × ~237µs each) must delay it drastically.
	if victimDelivered[0] < 5*sim.Millisecond {
		t.Errorf("victim frame at %v; flood failed to starve it", victimDelivered[0])
	}
}

func TestBusOffAttackLocksVictimOut(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus("b", DefaultBitRates(), k)
	b.Attach(&NodeFunc{ID: "rx"})
	(&BusOffAttacker{VictimID: 0x0C0}).Install(b)
	// Victim periodically transmits; every frame is corrupted, TEC
	// climbs by 8 per attempt with automatic retransmission.
	k.Schedule(0, "victim", func(k *sim.Kernel) {
		_ = b.Send("engine", &Frame{ID: 0x0C0, Format: Classic, Payload: []byte{1}})
	})
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if !b.busOff["engine"] {
		t.Errorf("victim TEC=%d, not bus-off", b.tec["engine"])
	}
	if err := b.Send("engine", &Frame{ID: 0x0C0, Format: Classic, Payload: []byte{1}}); err == nil {
		t.Error("bus-off node allowed to transmit")
	}
}

func TestTECRecoversOnSuccess(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus("b", DefaultBitRates(), k)
	b.Attach(&NodeFunc{ID: "rx"})
	hits := 0
	b.SetErrorInjector(func(f *Frame) bool {
		hits++
		return hits <= 3 // corrupt the first three attempts only
	})
	_ = b.Send("ecu", &Frame{ID: 0x50, Format: Classic, Payload: []byte{1}})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// 3 corruptions (+24) then success (−1) = 23.
	if got := b.tec["ecu"]; got != 23 {
		t.Errorf("TEC = %d, want 23", got)
	}
}

func TestSendValidates(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus("b", DefaultBitRates(), k)
	if err := b.Send("x", &Frame{ID: 0x1000, Format: Classic}); err == nil {
		t.Error("invalid frame accepted by Send")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := &Frame{ID: 1, Format: Classic, Payload: []byte{1, 2}}
	c := f.Clone()
	c.Payload[0] = 9
	if f.Payload[0] != 1 {
		t.Error("Clone shares payload storage")
	}
}
