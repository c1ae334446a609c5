package ivn

import (
	"fmt"

	"autosec/internal/canal"
	"autosec/internal/canbus"
	"autosec/internal/ethernet"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
)

// ScalingRow quantifies how a scenario's costs grow with the number of
// endpoints behind one zone controller — the dimension along which the
// paper's S1/S2/S3 trade-offs actually diverge in a real vehicle (a few
// endpoints per zone today, dozens in zonal consolidations).
type ScalingRow struct {
	Scenario string
	// KeysZC / KeysCC: session keys stored at the zone controller and
	// central computer.
	KeysZC int
	KeysCC int
	// OpsZCPerMsg: security operations the ZC performs per forwarded
	// message.
	OpsZCPerMsg int
	// BytesPerMsg: security + adaptation overhead bytes added to one
	// application message end to end (measured from the protocol
	// implementations on a sample payload).
	BytesPerMsg int
}

// Scaling computes the cost model for n endpoints in one zone. Byte
// overheads are measured, not assumed: each protocol's Protect runs on
// a payloadBytes-sized message.
func Scaling(n, payloadBytes int) ([]ScalingRow, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ivn: endpoints must be positive, got %d", n)
	}
	payload := make([]byte, payloadBytes)
	// Measured overheads: each suite protects a payload-sized message
	// and the wire expansion is observed, not assumed.
	measure := func(name string, key []byte) (int, []byte, error) {
		e, err := suites.Lookup(name)
		if err != nil {
			return 0, nil, err
		}
		s, err := e.New(secchan.Params{Key: key})
		if err != nil {
			return 0, nil, err
		}
		wire, err := s.Protect(payload)
		if err != nil {
			return 0, nil, err
		}
		return len(wire) - len(payload), wire, nil
	}

	secocOverhead, _, err := measure("SECOC", secocKey)
	if err != nil {
		return nil, err
	}
	macsecOverhead, macsecWire, err := measure("MACsec", hopSAKcc)
	if err != nil {
		return nil, err
	}

	// Measured CANAL segmentation overhead for a MACsec frame of this
	// size over CAN XL. The adapter segments the full Ethernet wire
	// image, so rebuild the frame around the protected payload.
	sec := &ethernet.Frame{Dst: ccMAC, Src: zcUpMAC, EtherType: ethernet.EtherTypeMACsec, Payload: macsecWire}
	adapter := canal.NewAdapter(1, canbus.XL, 0x100)
	canalOverhead, err := adapter.SegmentOverheadBytes(len(sec.Marshal()))
	if err != nil {
		return nil, err
	}

	return []ScalingRow{
		{
			// S1: SECOC end-to-end per endpoint stream; one MACsec hop
			// ZC↔CC shared by all streams. The CC stores a SECOC key
			// per endpoint plus the hop SAK.
			Scenario:    "S1",
			KeysZC:      2, // hop SAK + CAK, independent of n
			KeysCC:      n + 1,
			OpsZCPerMsg: 1, // MACsec protect on forward
			BytesPerMsg: secocOverhead + macsecOverhead,
		},
		{
			// S2 end-to-end: one MACsec channel per endpoint,
			// terminating at the CC; the ZC forwards ciphertext.
			Scenario:    "S2-e2e",
			KeysZC:      0,
			KeysCC:      n,
			OpsZCPerMsg: 0,
			BytesPerMsg: macsecOverhead,
		},
		{
			// S2 point-to-point: a hop SAK per endpoint at the ZC plus
			// the uplink SAK; the CC only holds the uplink.
			Scenario:    "S2-p2p",
			KeysZC:      n + 1,
			KeysCC:      1,
			OpsZCPerMsg: 2, // verify + re-protect
			BytesPerMsg: macsecOverhead,
		},
		{
			// S3: MACsec end-to-end through CANAL; keys as S2-e2e, plus
			// per-message adaptation overhead on the CAN XL leg.
			Scenario:    "S3",
			KeysZC:      0,
			KeysCC:      n,
			OpsZCPerMsg: 0,
			BytesPerMsg: macsecOverhead + canalOverhead,
		},
	}, nil
}
