package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"

	"autosec/internal/sim"
)

func mac(last byte) MAC { return MAC{0x02, 0, 0, 0, 0, last} }

func TestParseMAC(t *testing.T) {
	m, err := ParseMAC(1, 2, 3, 4, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "01:02:03:04:05:06" {
		t.Errorf("String = %s", m)
	}
	if _, err := ParseMAC(1, 2); err == nil {
		t.Error("short MAC accepted")
	}
}

func TestFrameMarshalRoundTrip(t *testing.T) {
	f := &Frame{Dst: mac(1), Src: mac(2), VLAN: 100, EtherType: EtherTypeApp, Payload: []byte("zonal data")}
	got, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != f.Dst || got.Src != f.Src || got.VLAN != 100 || got.EtherType != EtherTypeApp || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestFrameMarshalProperty(t *testing.T) {
	f := func(payload []byte, vlan uint16, et uint16) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		orig := &Frame{Dst: mac(9), Src: mac(8), VLAN: vlan, EtherType: et, Payload: payload}
		got, err := Unmarshal(orig.Marshal())
		return err == nil && got.VLAN == vlan && got.EtherType == et && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameValidateMTU(t *testing.T) {
	f := &Frame{Payload: make([]byte, MaxPayload+1)}
	if err := f.Validate(); err == nil {
		t.Error("jumbo payload accepted")
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestWireBytesVLANTag(t *testing.T) {
	plain := &Frame{Payload: make([]byte, 100)}
	tagged := &Frame{VLAN: 5, Payload: make([]byte, 100)}
	if tagged.WireBytes() != plain.WireBytes()+4 {
		t.Errorf("VLAN tag cost %d", tagged.WireBytes()-plain.WireBytes())
	}
}

func TestLinkDeliversToOppositeEnd(t *testing.T) {
	k := sim.NewKernel(1)
	var gotAtB *Frame
	a := &PortFunc{MAC: mac(1)}
	b := &PortFunc{MAC: mac(2), Fn: func(_ *sim.Kernel, f *Frame) { gotAtB = f }}
	l := NewLink("l", 1_000_000_000, k, a, b)
	if err := l.Send(mac(1), &Frame{Dst: mac(2), Src: mac(1), EtherType: EtherTypeApp, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if gotAtB == nil || string(gotAtB.Payload) != "hi" {
		t.Fatalf("delivery failed: %+v", gotAtB)
	}
}

func TestLinkRejectsForeignSender(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink("l", 1e9, k, &PortFunc{MAC: mac(1)}, &PortFunc{MAC: mac(2)})
	if err := l.Send(mac(9), &Frame{}); err == nil {
		t.Error("foreign port allowed to transmit")
	}
}

func TestLinkSerializationDelayScalesWithSize(t *testing.T) {
	k := sim.NewKernel(1)
	var smallAt, bigAt sim.Time
	rx := &PortFunc{MAC: mac(2), Fn: func(k *sim.Kernel, f *Frame) {
		if len(f.Payload) < 100 {
			smallAt = k.Now()
		} else {
			bigAt = k.Now()
		}
	}}
	l := NewLink("l", 100_000_000, k, &PortFunc{MAC: mac(1)}, rx)
	_ = l.Send(mac(1), &Frame{Dst: mac(2), Src: mac(1), Payload: make([]byte, 10)})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	k2 := sim.NewKernel(1)
	l2 := NewLink("l", 100_000_000, k2, &PortFunc{MAC: mac(1)}, rx)
	_ = l2.Send(mac(1), &Frame{Dst: mac(2), Src: mac(1), Payload: make([]byte, 1400)})
	if err := k2.Run(0); err != nil {
		t.Fatal(err)
	}
	if bigAt <= smallAt {
		t.Errorf("1400B at %v not slower than 10B at %v", bigAt, smallAt)
	}
}

func TestMultidropBroadcastsToOthers(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMultidrop("seg", k)
	got := map[byte]int{}
	var ids []int
	for i := byte(1); i <= 3; i++ {
		i := i
		ids = append(ids, m.Attach(&PortFunc{MAC: mac(i), Fn: func(_ *sim.Kernel, f *Frame) { got[i]++ }}))
	}
	if err := m.Send(ids[0], &Frame{Dst: Broadcast, Src: mac(1), Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got[1] != 0 || got[2] != 1 || got[3] != 1 {
		t.Errorf("delivery = %v", got)
	}
}

func TestMultidropPLCARoundRobinFairness(t *testing.T) {
	// With PLCA, two saturating senders alternate; neither starves.
	k := sim.NewKernel(1)
	m := NewMultidrop("seg", k)
	var order []byte
	rxID := m.Attach(&PortFunc{MAC: mac(9), Fn: func(_ *sim.Kernel, f *Frame) { order = append(order, f.Src[5]) }})
	_ = rxID
	a := m.Attach(&PortFunc{MAC: mac(1)})
	b := m.Attach(&PortFunc{MAC: mac(2)})
	for i := 0; i < 5; i++ {
		_ = m.Send(a, &Frame{Dst: mac(9), Src: mac(1), Payload: make([]byte, 50)})
		_ = m.Send(b, &Frame{Dst: mac(9), Src: mac(2), Payload: make([]byte, 50)})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("delivered %d frames", len(order))
	}
	// Strict alternation after the first opportunity.
	for i := 2; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("PLCA did not alternate: %v", order)
		}
	}
}

func TestMultidropSendValidation(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMultidrop("seg", k)
	if err := m.Send(0, &Frame{}); err == nil {
		t.Error("send with no nodes accepted")
	}
	id := m.Attach(&PortFunc{MAC: mac(1)})
	if err := m.Send(id, &Frame{Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Error("oversize frame accepted")
	}
}
