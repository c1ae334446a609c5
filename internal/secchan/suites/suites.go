// Package suites adapts each in-vehicle security protocol onto the
// secchan.Suite interface and registers them in the order of the
// paper's Table I rows. The experiment harness (RunTable1, the MAC
// ablation, the IVN scaling model) iterates the registry instead of
// hand-wiring protocol packages: adding a protocol to every comparison
// means appending one Entry here.
//
// Each suite bundles one protecting endpoint and one verifying
// endpoint of its protocol into a loopback channel, so Protect→Verify
// round-trips exercise the real wire format, replay discipline, and
// key schedule of the underlying package — nothing is re-implemented
// at this layer.
package suites

import (
	"fmt"

	"autosec/internal/canbus"
	"autosec/internal/cansec"
	"autosec/internal/ethernet"
	"autosec/internal/ext"
	"autosec/internal/ipsec"
	"autosec/internal/macsec"
	"autosec/internal/secchan"
	"autosec/internal/secoc"
	"autosec/internal/tlslite"
)

// CapTable1 marks a paper Table I row; Registry() is exactly the
// table1-capped entries in rank order.
const CapTable1 = "table1"

// Suites is the extension registry of channel suites (ext kind
// "suite"). Built-ins register below at init; drop-in suites register
// themselves from their own file (see internal/ext/demo) and become
// addressable from scenario.ini, the CLI, and the daemon by name —
// without entering Table I or the corpus generator's vocabulary.
var Suites = ext.NewRegistry[secchan.Entry]("suite")

func init() {
	reg := func(rank int, e secchan.Entry, desc string, ctor func(secchan.Params) (secchan.Suite, error), caps ...string) {
		e.New = ctor
		Suites.Register(ext.Meta{Name: e.Name, Description: desc, Paper: e.Paper, Caps: caps, Rank: rank}, e)
	}
	reg(1, secocMeta, "AUTOSAR SecOC: truncated-MAC + freshness at the application layer",
		newSECOC, ext.CapCore, CapTable1)
	reg(2, tlsMeta, "(D)TLS-style transport records with AEAD and handshake key schedule",
		newTLS, ext.CapCore, CapTable1)
	reg(3, ipsecMeta, "IPsec ESP tunnel: encrypt-then-MAC with an anti-replay window",
		newIPsec, ext.CapCore, CapTable1)
	reg(4, macsecMeta, "IEEE 802.1AE MACsec SecY in confidential mode (SecTAG + ICV)",
		newMACsec, ext.CapCore, CapTable1)
	reg(5, cansecMeta, "CiA 613-2 CANsec zones on CAN XL with authenticated encryption",
		newCANsec, ext.CapCore, CapTable1)
	integ := macsecMeta
	integ.Name = "MACsec-integ"
	integ.Paper = "Table I row 4 variant; 802.1AE integrity-only mode (E=0)"
	integ.Props.Conf = false
	reg(6, integ, "802.1AE MACsec integrity-only variant (authenticated, plaintext payload)",
		newMACsecIntegrityOnly, ext.CapCore)
}

// Registry returns the Table I suites in paper row order: SECOC,
// (D)TLS, IPsec ESP, MACsec, CANsec — the table1-capped slice of the
// extension registry, which keeps this canonical list stable no matter
// what drop-in suites a binary links in. Constructors that randomise a
// handshake consume Params.RNG in this order, so iterating the
// registry preserves the deterministic draw stream of the experiments.
func Registry() []secchan.Entry {
	names := Suites.NamesWith(CapTable1)
	out := make([]secchan.Entry, 0, len(names))
	for _, n := range names {
		e, _, _ := Suites.Get(n)
		out = append(out, e)
	}
	return out
}

// Lookup resolves any registered suite — Table I row, built-in
// variant, or drop-in — by name, with did-you-mean on a miss.
func Lookup(name string) (secchan.Entry, error) {
	return Suites.Lookup(name)
}

// --- SECOC (application layer, Table I row 1) ---

var secocMeta = secchan.Entry{
	Name:  "SECOC",
	Layer: "7 application",
	Media: "CAN + Ethernet",
	Paper: "Table I row 1; scenario S1 of §III (AUTOSAR SECOC [18])",
	Props: secchan.Properties{Auth: true, Conf: false, Replay: true},
}

// secocSuite pairs a SECOC sender and receiver: Protect comes from the
// one, Verify from the other.
type secocSuite struct {
	*secoc.Sender
	*secoc.Receiver
}

func newSECOC(p secchan.Params) (secchan.Suite, error) {
	cfg := secoc.DefaultConfig(1)
	if p.MACBits != 0 {
		cfg.MACBits = p.MACBits
	}
	send, err := secoc.NewSender(cfg, p.Key)
	if err != nil {
		return nil, err
	}
	recv, err := secoc.NewReceiver(cfg, p.Key)
	if err != nil {
		return nil, err
	}
	return secocSuite{send, recv}, nil
}

// --- (D)TLS (transport layer, Table I row 2) ---

var tlsMeta = secchan.Entry{
	Name:  "(D)TLS",
	Layer: "4 transport",
	Media: "Ethernet/IP",
	Paper: "Table I row 2; §III transport alternative (DTLS-style records)",
	Props: secchan.Properties{Auth: true, Conf: true, Replay: true},
}

type tlsSuite struct {
	client *tlslite.Session
	server *tlslite.Session
}

func newTLS(p secchan.Params) (secchan.Suite, error) {
	if p.RNG == nil {
		return nil, fmt.Errorf("suites: (D)TLS needs Params.RNG for handshake nonces")
	}
	client, server, err := tlslite.Handshake(p.Key, p.Key, p.RNG)
	if err != nil {
		return nil, err
	}
	return &tlsSuite{client: client, server: server}, nil
}

func (s *tlsSuite) Protect(payload []byte) ([]byte, error) { return s.client.Seal(payload) }
func (s *tlsSuite) Verify(wire []byte) ([]byte, error)     { return s.server.Open(wire) }

// --- IPsec ESP (network layer, Table I row 3) ---

var ipsecMeta = secchan.Entry{
	Name:  "IPsec ESP",
	Layer: "3 network",
	Media: "Ethernet/IP",
	Paper: "Table I row 3; §III network alternative (ESP tunnel, RFC 4303 shape)",
	Props: secchan.Properties{Auth: true, Conf: true, Replay: true},
}

type ipsecSuite struct {
	send *ipsec.SA
	recv *ipsec.SA
}

func newIPsec(p secchan.Params) (secchan.Suite, error) {
	send, err := ipsec.NewSA(1, p.Key)
	if err != nil {
		return nil, err
	}
	recv, err := ipsec.NewSA(1, p.Key)
	if err != nil {
		return nil, err
	}
	return &ipsecSuite{send: send, recv: recv}, nil
}

func (s *ipsecSuite) Protect(payload []byte) ([]byte, error) { return s.send.Encapsulate(payload) }
func (s *ipsecSuite) Verify(wire []byte) ([]byte, error)     { return s.recv.Decapsulate(wire) }

// --- MACsec (data link on Ethernet, Table I row 4) ---

var macsecMeta = secchan.Entry{
	Name:  "MACsec",
	Layer: "2 data link",
	Media: "Ethernet",
	Paper: "Table I row 4; scenarios S2/S3 of §III (IEEE 802.1AE [20])",
	Props: secchan.Properties{Auth: true, Conf: true, Replay: true},
}

// Fixed station addresses for the loopback channel; overheads and
// replay behaviour do not depend on them.
var (
	macsecSrcMAC = ethernet.MAC{0x02, 0, 0, 0, 0, 0x01}
	macsecDstMAC = ethernet.MAC{0x02, 0, 0, 0, 0, 0x02}
)

type macsecSuite struct {
	tx *macsec.SecY
	rx *macsec.SecY
}

func newMACsec(p secchan.Params) (secchan.Suite, error) {
	return newMACsecMode(macsec.Confidential, p)
}

// newMACsecIntegrityOnly builds the 802.1AE integrity-only variant
// (E=0: authenticated, plaintext payload). It is not a Table I row —
// the table's MACsec entry is the confidential mode — but the
// benchmark suite measures both.
func newMACsecIntegrityOnly(p secchan.Params) (secchan.Suite, error) {
	return newMACsecMode(macsec.IntegrityOnly, p)
}

func newMACsecMode(mode macsec.Mode, p secchan.Params) (secchan.Suite, error) {
	sciTx := macsec.SCIFromMAC(macsecSrcMAC, 1)
	tx, err := macsec.NewSecY(mode, sciTx, p.Key, 0)
	if err != nil {
		return nil, err
	}
	rx, err := macsec.NewSecY(mode, macsec.SCIFromMAC(macsecDstMAC, 1), p.Key, 0)
	if err != nil {
		return nil, err
	}
	if err := rx.AddPeer(sciTx, p.Key, 0); err != nil {
		return nil, err
	}
	return &macsecSuite{tx: tx, rx: rx}, nil
}

func (s *macsecSuite) Protect(payload []byte) ([]byte, error) {
	f := &ethernet.Frame{Dst: macsecDstMAC, Src: macsecSrcMAC, EtherType: ethernet.EtherTypeApp, Payload: payload}
	sec, err := s.tx.Protect(f)
	if err != nil {
		return nil, err
	}
	return sec.Payload, nil
}

func (s *macsecSuite) Verify(wire []byte) ([]byte, error) {
	f := &ethernet.Frame{Dst: macsecDstMAC, Src: macsecSrcMAC, EtherType: ethernet.EtherTypeMACsec, Payload: wire}
	inner, err := s.rx.Verify(f)
	if err != nil {
		return nil, err
	}
	return inner.Payload, nil
}

// --- CANsec (data link on CAN XL, Table I row 5) ---

var cansecMeta = secchan.Entry{
	Name:  "CANsec",
	Layer: "2 data link",
	Media: "CAN XL",
	Paper: "Table I row 5; §III CAN XL zones (CiA 613-2 [19])",
	Props: secchan.Properties{Auth: true, Conf: true, Replay: true},
}

type cansecSuite struct {
	send *cansec.Endpoint
	recv *cansec.Endpoint
}

func newCANsec(p secchan.Params) (secchan.Suite, error) {
	zone, err := cansec.NewZone(1, cansec.AuthEncrypt, p.Key)
	if err != nil {
		return nil, err
	}
	return &cansecSuite{send: cansec.NewEndpoint(zone, 1), recv: cansec.NewEndpoint(zone, 2)}, nil
}

func (s *cansecSuite) Protect(payload []byte) ([]byte, error) {
	f, err := s.send.Protect(0x100, payload)
	if err != nil {
		return nil, err
	}
	return f.Payload, nil
}

func (s *cansecSuite) Verify(wire []byte) ([]byte, error) {
	f := &canbus.Frame{ID: 0x100, Format: canbus.XL, SDUType: canbus.SDUCANsec, Payload: wire}
	return s.recv.Verify(f)
}
