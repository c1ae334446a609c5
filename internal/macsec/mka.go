package macsec

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"autosec/internal/vcrypto"
)

// This file models MACsec Key Agreement (IEEE 802.1X MKA, paper ref
// [25]) closely enough for the S2/S3 experiments: participants share a
// connectivity association key (CAK); the elected key server derives a
// SAK and distributes it wrapped and authenticated with keys derived
// from the CAK. A participant holding the wrong CAK can neither forge
// MKPDUs nor unwrap the SAK.

// CAKName identifies a connectivity association (the CKN of 802.1X).
type CAKName string

// Participant is one MKA peer.
type Participant struct {
	Name     string
	ckn      CAKName
	cak      []byte
	ick, kek []byte // ICV key and key-encryption key, derived from CAK
	priority uint8
	sak      []byte
	sakID    uint32
}

// NewParticipant creates an MKA participant from the pre-shared CAK.
// Lower priority value wins key-server election.
func NewParticipant(name string, ckn CAKName, cak []byte, priority uint8) (*Participant, error) {
	if len(cak) < 16 {
		return nil, fmt.Errorf("macsec: CAK must be at least 16 bytes")
	}
	return &Participant{
		Name:     name,
		ckn:      ckn,
		cak:      append([]byte(nil), cak...),
		ick:      vcrypto.DeriveKey(cak, "mka-ick", string(ckn), 16),
		kek:      vcrypto.DeriveKey(cak, "mka-kek", string(ckn), 16),
		priority: priority,
	}, nil
}

// MKPDU is a key-distribution message.
type MKPDU struct {
	CKN        CAKName
	ServerName string
	SAKID      uint32
	WrappedSAK []byte // SAK encrypted under the KEK
	ICV        []byte // authentication tag under the ICK
}

// ElectKeyServer returns the participant with the lowest priority
// (ties by name, as 802.1X breaks ties by SCI).
func ElectKeyServer(peers []*Participant) (*Participant, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("macsec: no participants")
	}
	best := peers[0]
	for _, p := range peers[1:] {
		if p.priority < best.priority || (p.priority == best.priority && p.Name < best.Name) {
			best = p
		}
	}
	return best, nil
}

// DistributeSAK has the key server generate SAK number sakID and build
// the MKPDU that carries it.
func (p *Participant) DistributeSAK(sakID uint32) (*MKPDU, error) {
	sak := vcrypto.DeriveKey(p.cak, "mka-sak", fmt.Sprintf("%s/%d", p.ckn, sakID), 16)
	var idBuf [4]byte
	binary.BigEndian.PutUint32(idBuf[:], sakID)
	kek, err := vcrypto.NewGCM(p.kek)
	if err != nil {
		return nil, err
	}
	wrapped := kek.Seal(nil, 0, sakID, []byte(p.ckn), sak)
	ick, err := vcrypto.NewGCM(p.ick)
	if err != nil {
		return nil, err
	}
	icvMsg := append(append([]byte(p.ckn), idBuf[:]...), wrapped...)
	icv := ick.Seal(nil, 0, sakID, icvMsg, nil)
	p.sak = sak
	p.sakID = sakID
	return &MKPDU{CKN: p.ckn, ServerName: p.Name, SAKID: sakID, WrappedSAK: wrapped, ICV: icv}, nil
}

// AcceptSAK verifies an MKPDU and installs the carried SAK. It fails for
// participants holding a different CAK.
func (p *Participant) AcceptSAK(pdu *MKPDU) error {
	if pdu.CKN != p.ckn {
		return fmt.Errorf("macsec: MKPDU for CKN %q, have %q", pdu.CKN, p.ckn)
	}
	var idBuf [4]byte
	binary.BigEndian.PutUint32(idBuf[:], pdu.SAKID)
	icvMsg := append(append([]byte(pdu.CKN), idBuf[:]...), pdu.WrappedSAK...)
	ick, err := vcrypto.NewGCM(p.ick)
	if err != nil {
		return err
	}
	if _, err := ick.Open(nil, 0, pdu.SAKID, icvMsg, pdu.ICV); err != nil {
		return fmt.Errorf("macsec: MKPDU ICV invalid (CAK mismatch or tamper)")
	}
	kek, err := vcrypto.NewGCM(p.kek)
	if err != nil {
		return err
	}
	sak, err := kek.Open(nil, 0, pdu.SAKID, []byte(pdu.CKN), pdu.WrappedSAK)
	if err != nil {
		return fmt.Errorf("macsec: SAK unwrap failed: %w", err)
	}
	p.sak = sak
	p.sakID = pdu.SAKID
	return nil
}

// SAK returns the installed session key (nil if none yet).
func (p *Participant) SAK() []byte { return p.sak }

// SAKID returns the installed SAK's identifier.
func (p *Participant) SAKID() uint32 { return p.sakID }

// SharesSAK reports whether two participants hold the same session key.
func SharesSAK(a, b *Participant) bool {
	return a.sak != nil && bytes.Equal(a.sak, b.sak)
}

// Marshal serializes the MKPDU for transport (e.g. through a CANAL
// tunnel in scenario S3).
func (p *MKPDU) Marshal() []byte {
	out := make([]byte, 0, 16+len(p.CKN)+len(p.ServerName)+len(p.WrappedSAK)+len(p.ICV))
	put := func(b []byte) {
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(b)))
		out = append(out, l[:]...)
		out = append(out, b...)
	}
	put([]byte(p.CKN))
	put([]byte(p.ServerName))
	var id [4]byte
	binary.BigEndian.PutUint32(id[:], p.SAKID)
	out = append(out, id[:]...)
	put(p.WrappedSAK)
	put(p.ICV)
	return out
}

// UnmarshalMKPDU reverses Marshal.
func UnmarshalMKPDU(data []byte) (*MKPDU, error) {
	var pdu MKPDU
	take := func() ([]byte, error) {
		if len(data) < 2 {
			return nil, fmt.Errorf("macsec: truncated MKPDU")
		}
		n := int(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
		if len(data) < n {
			return nil, fmt.Errorf("macsec: truncated MKPDU field")
		}
		f := data[:n]
		data = data[n:]
		return f, nil
	}
	ckn, err := take()
	if err != nil {
		return nil, err
	}
	pdu.CKN = CAKName(ckn)
	name, err := take()
	if err != nil {
		return nil, err
	}
	pdu.ServerName = string(name)
	if len(data) < 4 {
		return nil, fmt.Errorf("macsec: truncated MKPDU SAK id")
	}
	pdu.SAKID = binary.BigEndian.Uint32(data[:4])
	data = data[4:]
	if pdu.WrappedSAK, err = take(); err != nil {
		return nil, err
	}
	if pdu.ICV, err = take(); err != nil {
		return nil, err
	}
	pdu.WrappedSAK = append([]byte(nil), pdu.WrappedSAK...)
	pdu.ICV = append([]byte(nil), pdu.ICV...)
	return &pdu, nil
}
