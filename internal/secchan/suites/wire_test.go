package suites

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"sync"
	"testing"

	"autosec/internal/cansec"
	"autosec/internal/ethernet"
	"autosec/internal/macsec"
	"autosec/internal/secchan"
	"autosec/internal/sim"
	"autosec/internal/vcrypto"
)

// Wire references: each protocol's wire assembled the plain way, with a
// fresh crypto/aes CMAC or cipher.NewGCM built for every frame and the
// header, ciphertext and tag concatenated in separate buffers. They
// pin the keyed endpoints, which seal in place into one buffer, to the
// bytes the per-key free functions produced.

// refWire returns the wire of the seq-th frame (1-based) of payload.
type refWire func(seq uint32, payload []byte) []byte

// refCMAC is RFC 4493 AES-CMAC with a fresh key schedule per call.
func refCMAC(key, msg []byte) [16]byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	dbl := func(in [16]byte) (out [16]byte) {
		for i := 0; i < 16; i++ {
			out[i] = in[i] << 1
			if i < 15 {
				out[i] |= in[i+1] >> 7
			}
		}
		if in[0]&0x80 != 0 {
			out[15] ^= 0x87
		}
		return out
	}
	var l [16]byte
	block.Encrypt(l[:], l[:])
	k1 := dbl(l)
	k2 := dbl(k1)

	n := max((len(msg)+15)/16, 1)
	var last [16]byte
	if len(msg) > 0 && len(msg)%16 == 0 {
		copy(last[:], msg[(n-1)*16:])
		for i := range last {
			last[i] ^= k1[i]
		}
	} else {
		rem := msg[(n-1)*16:]
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}
	var x [16]byte
	for b := 0; b < n; b++ {
		blk := last[:]
		if b < n-1 {
			blk = msg[b*16 : (b+1)*16]
		}
		for i := range x {
			x[i] ^= blk[i]
		}
		block.Encrypt(x[:], x[:])
	}
	return x
}

// refSeal is AES-GCM with a fresh cipher.NewGCM per call and the
// SCI ‖ PN nonce; it returns a new ciphertext ‖ tag slice.
func refSeal(key []byte, sci uint64, pn uint32, aad, pt []byte) []byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	var nonce [12]byte
	binary.BigEndian.PutUint64(nonce[:8], sci)
	binary.BigEndian.PutUint32(nonce[8:], pn)
	return aead.Seal(nil, nonce[:], pt, aad)
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func refSECOC(key []byte) refWire {
	return func(seq uint32, payload []byte) []byte {
		var fv [8]byte
		binary.BigEndian.PutUint64(fv[:], uint64(seq))
		tag := refCMAC(key, concat([]byte{0, 1}, payload, fv[:])) // DataID 1
		return concat(payload, fv[7:], tag[:3])                   // profile 1: 8 FV bits, 24 MAC bits
	}
}

// refTLS replays the handshake's nonce draws from an RNG seeded like the
// suite's to recover the client-to-server key.
func refTLS(key []byte, seed int64) refWire {
	rng := sim.NewRNG(seed)
	cn, sn := make([]byte, 16), make([]byte, 16)
	rng.Bytes(cn)
	rng.Bytes(sn)
	c2s := vcrypto.DeriveKey(key, "tls-c2s", string(cn)+"|"+string(sn), 16)
	return func(seq uint32, payload []byte) []byte {
		hdr := make([]byte, 13)
		hdr[0] = 23
		binary.BigEndian.PutUint16(hdr[1:3], 1)
		binary.BigEndian.PutUint64(hdr[3:11], uint64(seq))
		binary.BigEndian.PutUint16(hdr[11:13], uint16(len(payload)))
		return concat(hdr, refSeal(c2s, 0, seq, hdr, payload)) // client role 0
	}
}

func refIPsec(key []byte) refWire {
	return func(seq uint32, payload []byte) []byte {
		hdr := make([]byte, 8)
		binary.BigEndian.PutUint32(hdr[0:4], 1) // SPI 1
		binary.BigEndian.PutUint32(hdr[4:8], seq)
		return concat(hdr, refSeal(key, 1, seq, hdr, payload))
	}
}

func refMACsec(key []byte, confidential bool) refWire {
	sci := macsec.SCIFromMAC(macsecSrcMAC, 1)
	return func(pn uint32, payload []byte) []byte {
		tag := make([]byte, 14)
		if confidential {
			tag[0] = 0x08 // E bit, AN 0
		}
		binary.BigEndian.PutUint32(tag[2:6], pn)
		binary.BigEndian.PutUint64(tag[6:14], sci)
		var et [2]byte
		binary.BigEndian.PutUint16(et[:], ethernet.EtherTypeApp)
		inner := concat(et[:], payload)
		aad := concat(macsecDstMAC[:], macsecSrcMAC[:], tag)
		if confidential {
			return concat(tag, refSeal(key, sci, pn, aad, inner))
		}
		return concat(tag, inner, refSeal(key, sci, pn, concat(aad, inner), nil))
	}
}

func refCANsec(key []byte, encrypt bool) refWire {
	const zone, node = 1, 1
	return func(fv uint32, payload []byte) []byte {
		hdr := make([]byte, 8)
		binary.BigEndian.PutUint16(hdr[0:2], zone)
		binary.BigEndian.PutUint16(hdr[2:4], node)
		binary.BigEndian.PutUint32(hdr[4:8], fv)
		sci := uint64(zone)<<16 | node
		if encrypt {
			return concat(hdr, refSeal(key, sci, fv, hdr, payload))
		}
		return concat(hdr, payload, refSeal(key, sci, fv, concat(hdr, payload), nil))
	}
}

// newCANsecAuthOnly is the CANsec suite over an AuthOnly zone, the mode
// the registered suite does not use.
func newCANsecAuthOnly(p secchan.Params) (secchan.Suite, error) {
	zone, err := cansec.NewZone(1, cansec.AuthOnly, p.Key)
	if err != nil {
		return nil, err
	}
	return &cansecSuite{send: cansec.NewEndpoint(zone, 1), recv: cansec.NewEndpoint(zone, 2)}, nil
}

// TestWireBytesMatchReference protects 300 payloads of 0–64 random
// bytes through every registered suite, and CANsec in both modes, and
// requires each wire to equal its per-frame reference and each Verify
// to return the payload. 300 frames run SECOC's 8-bit freshness past a
// wrap.
func TestWireBytesMatchReference(t *testing.T) {
	const frames, seed = 300, 11
	key := testKey
	type refCase struct {
		name string
		new  func(secchan.Params) (secchan.Suite, error)
		ref  refWire
	}
	var cases []refCase
	for _, name := range Suites.Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var ref refWire
		switch name {
		case "SECOC":
			ref = refSECOC(key)
		case "(D)TLS":
			ref = refTLS(key, seed)
		case "IPsec ESP":
			ref = refIPsec(key)
		case "MACsec":
			ref = refMACsec(key, true)
		case "MACsec-integ":
			ref = refMACsec(key, false)
		case "CANsec":
			ref = refCANsec(key, true)
		default:
			t.Fatalf("registered suite %q has no wire reference", name)
		}
		cases = append(cases, refCase{name, e.New, ref})
	}
	cases = append(cases, refCase{"CANsec-auth-only", newCANsecAuthOnly, refCANsec(key, false)})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.new(secchan.Params{Key: key, RNG: sim.NewRNG(seed)})
			if err != nil {
				t.Fatal(err)
			}
			payloads := sim.NewRNG(seed + 1)
			for seq := uint32(1); seq <= frames; seq++ {
				payload := make([]byte, payloads.Intn(65))
				payloads.Bytes(payload)
				wire, err := s.Protect(payload)
				if err != nil {
					t.Fatalf("frame %d: Protect: %v", seq, err)
				}
				if want := c.ref(seq, payload); !bytes.Equal(wire, want) {
					t.Fatalf("frame %d (%d-byte payload): wire\n %x\nreference\n %x", seq, len(payload), wire, want)
				}
				got, err := s.Verify(wire)
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("frame %d: Verify = %x, %v; want %x", seq, got, err, payload)
				}
			}
		})
	}
}

// TestRoundTripAllocs pins each suite's Protect → Verify allocations:
// the returned wire and payload, plus the protocol's own frame structs
// in MACsec (one per direction) and CANsec (Protect's). SECOC's
// payload is a view of the wire, so its round trip allocates the wire
// alone. Keyed cipher state and per-frame scratch belong to the
// endpoints and cost nothing per frame. Skipped under -race, whose
// instrumentation allocates.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	bound := map[string]float64{
		"SECOC": 1, "(D)TLS": 2, "IPsec ESP": 2, "MACsec": 4, "MACsec-integ": 4, "CANsec": 3,
	}
	payload := []byte("steer left 3 deg")
	for _, name := range Suites.Names() {
		want, ok := bound[name]
		if !ok {
			t.Fatalf("registered suite %q has no allocation bound", name)
		}
		e, _ := Lookup(name)
		s := newSuite(t, e)
		n := testing.AllocsPerRun(200, func() {
			wire, err := s.Protect(payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Verify(wire); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per round trip", name, n)
		if n > want {
			t.Errorf("%s: Protect → Verify allocates %v per frame, want at most %v", name, n, want)
		}
	}
}

// TestSameKeySuitesConcurrent runs two instances of every suite, built
// from the same key and seed, on two goroutines at once, through the
// same payloads. Under -race it fails if the instances share any
// mutable cipher state; in any mode the two must produce identical
// wires.
func TestSameKeySuitesConcurrent(t *testing.T) {
	const frames = 200
	for _, name := range Suites.Names() {
		e, _ := Lookup(name)
		var wires [2][][]byte
		var errs [2]error
		var wg sync.WaitGroup
		for g := range wires {
			s, err := e.New(secchan.Params{Key: testKey, RNG: sim.NewRNG(3)})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					wire, err := s.Protect([]byte{byte(i), byte(i >> 8)})
					if err == nil {
						_, err = s.Verify(wire)
					}
					if err != nil {
						errs[g] = err
						return
					}
					wires[g] = append(wires[g], wire)
				}
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("%s: instance %d: %v", name, g, err)
			}
		}
		for i := range wires[0] {
			if !bytes.Equal(wires[0][i], wires[1][i]) {
				t.Fatalf("%s: frame %d: the instances' wires differ", name, i)
			}
		}
	}
}
