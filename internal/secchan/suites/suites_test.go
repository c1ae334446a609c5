package suites

import (
	"bytes"
	"testing"

	"autosec/internal/secchan"
	"autosec/internal/sim"
)

var testKey = []byte("0123456789abcdef")

func newSuite(t *testing.T, e secchan.Entry) secchan.Suite {
	t.Helper()
	s, err := e.New(secchan.Params{Key: testKey, RNG: sim.NewRNG(1)})
	if err != nil {
		t.Fatalf("%s: New: %v", e.Name, err)
	}
	return s
}

func TestRegistryMatchesTableI(t *testing.T) {
	want := []struct {
		name, layer, media string
		overhead           int
		auth, conf, replay bool
	}{
		{"SECOC", "7 application", "CAN + Ethernet", 4, true, false, true},
		{"(D)TLS", "4 transport", "Ethernet/IP", 29, true, true, true},
		{"IPsec ESP", "3 network", "Ethernet/IP", 24, true, true, true},
		{"MACsec", "2 data link", "Ethernet", 32, true, true, true},
		{"CANsec", "2 data link", "CAN XL", 24, true, true, true},
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d suites, want %d", len(reg), len(want))
	}
	for i, w := range want {
		e := reg[i]
		if e.Name != w.name || e.Layer != w.layer || e.Media != w.media {
			t.Errorf("row %d: %s/%s/%s, want %s/%s/%s", i, e.Name, e.Layer, e.Media, w.name, w.layer, w.media)
		}
		if e.Paper == "" {
			t.Errorf("%s: no paper mapping", e.Name)
		}
		if p := e.Props; p.Auth != w.auth || p.Conf != w.conf || p.Replay != w.replay {
			t.Errorf("%s: properties %+v, want auth=%v conf=%v replay=%v", e.Name, p, w.auth, w.conf, w.replay)
		}
		payload := make([]byte, 16)
		wire, err := newSuite(t, e).Protect(payload)
		if err != nil {
			t.Fatalf("%s: Protect: %v", e.Name, err)
		}
		if got := len(wire) - len(payload); got != w.overhead {
			t.Errorf("%s: measured overhead %d, want %d", e.Name, got, w.overhead)
		}
	}
}

// TestSuiteRoundTripAndStats protects three frames through every Table I
// suite and pins the per-frame outcome counts: three protected, three
// verified, and three replays rejected.
func TestSuiteRoundTripAndStats(t *testing.T) {
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			s := newSuite(t, e)
			payload := []byte("steer left 3 deg")
			for i := 0; i < 3; i++ {
				wire, err := s.Protect(payload)
				if err != nil {
					t.Fatalf("Protect: %v", err)
				}
				got, err := s.Verify(wire)
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("round-trip payload %q, want %q", got, payload)
				}
				// A replayed wire image must fail.
				if _, err := s.Verify(wire); err == nil {
					t.Fatal("replayed wire accepted")
				}
			}
		})
	}
}

// TestReplayWindowEdgeCases drives every suite through the same
// delivery schedules and pins where their replay disciplines agree and
// diverge. Sequence numbers are protect order (1-based); warmup
// deliveries establish receiver state, then the probe's accept/reject
// is checked per suite. The window arithmetic behind each expectation:
// SECOC accepts within 64 above its counter (no reordering), (D)TLS
// and IPsec keep a 64-deep bitmap below the highest seen (reordering
// ok), MACsec here runs strict-increasing (window 0), CANsec accepts
// within 1024 above its counter.
func TestReplayWindowEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		warmup []int
		probe  int
		want   map[string]bool
	}{
		{
			name: "duplicate-in-window", warmup: []int{1, 2, 3, 4, 5}, probe: 3,
			want: map[string]bool{"SECOC": false, "(D)TLS": false, "IPsec ESP": false, "MACsec": false, "CANsec": false},
		},
		{
			// 4 was skipped, then arrives late: only the bitmap
			// disciplines accept reordering behind the highest.
			name: "reorder-unseen-in-window", warmup: []int{1, 2, 3, 5}, probe: 4,
			want: map[string]bool{"SECOC": false, "(D)TLS": true, "IPsec ESP": true, "MACsec": false, "CANsec": false},
		},
		{
			// 69 = 5+64: exactly at SECOC's window edge, future for the
			// rest.
			name: "exactly-at-window-edge", warmup: []int{5}, probe: 69,
			want: map[string]bool{"SECOC": true, "(D)TLS": true, "IPsec ESP": true, "MACsec": true, "CANsec": true},
		},
		{
			// 70 = 5+65: one past SECOC's window; a counter that far
			// ahead desynchronizes SECOC but nobody else.
			name: "far-future-past-secoc-window", warmup: []int{5}, probe: 70,
			want: map[string]bool{"SECOC": false, "(D)TLS": true, "IPsec ESP": true, "MACsec": true, "CANsec": true},
		},
		{
			// 1030 = 5+1025: past CANsec's 1024 window too; only the
			// bitmap/lenient disciplines treat any future as fresh.
			name: "far-future-past-cansec-window", warmup: []int{5}, probe: 1030,
			want: map[string]bool{"SECOC": false, "(D)TLS": true, "IPsec ESP": true, "MACsec": true, "CANsec": false},
		},
		{
			// 1 is 65 below the highest: below every bitmap and counter.
			name: "stale-below-window", warmup: []int{2, 66}, probe: 1,
			want: map[string]bool{"SECOC": false, "(D)TLS": false, "IPsec ESP": false, "MACsec": false, "CANsec": false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			maxSeq := tc.probe
			for _, w := range tc.warmup {
				if w > maxSeq {
					maxSeq = w
				}
			}
			for _, e := range Registry() {
				want, ok := tc.want[e.Name]
				if !ok {
					t.Fatalf("case has no expectation for suite %s", e.Name)
				}
				s := newSuite(t, e)
				wires := make([][]byte, maxSeq+1)
				for seq := 1; seq <= maxSeq; seq++ {
					wire, err := s.Protect([]byte{byte(seq), byte(seq >> 8)})
					if err != nil {
						t.Fatalf("%s: Protect #%d: %v", e.Name, seq, err)
					}
					wires[seq] = wire
				}
				for _, w := range tc.warmup {
					if _, err := s.Verify(wires[w]); err != nil {
						t.Fatalf("%s: warmup delivery %d rejected: %v", e.Name, w, err)
					}
				}
				_, err := s.Verify(wires[tc.probe])
				if accepted := err == nil; accepted != want {
					t.Errorf("%s: probe %d accepted=%v, want %v (err: %v)", e.Name, tc.probe, accepted, want, err)
				}
			}
		})
	}
}

func TestMACsecIntegrityOnlyVariant(t *testing.T) {
	e, err := Lookup("MACsec-integ")
	if err != nil {
		t.Fatal(err)
	}
	if e.Props.Conf || !e.Props.Auth || !e.Props.Replay {
		t.Errorf("variant props %+v, want integrity-only", e.Props)
	}
	s := newSuite(t, e)
	payload := []byte("plaintext on the wire")
	wire, err := s.Protect(payload)
	if err != nil {
		t.Fatal(err)
	}
	// E=0: the payload must be visible in the protected frame.
	if !bytes.Contains(wire, payload) {
		t.Error("integrity-only frame does not carry the plaintext payload")
	}
	got, err := s.Verify(wire)
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("round-trip: %q, %v", got, err)
	}
}
