package vcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestNoPackageLevelState pins the package's ownership rule: keyed
// state lives in the CMAC and GCM values the endpoints own, never in a
// package-level cache, lock or pool. It parses the package's non-test
// sources and fails on any package-level variable beyond a sentinel
// error, and on any import of sync.
func TestNoPackageLevelState(t *testing.T) {
	allowed := map[string]string{
		"errGCMAuth": "sentinel error",
	}
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
				t.Errorf("%s imports %s", name, path)
			}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					seen++
					if _, ok := allowed[id.Name]; !ok {
						t.Errorf("%s: package-level variable %s; keyed state belongs to the CMAC/GCM values", fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("parsed no package-level variables; is the test running in the package directory?")
	}
}

// distinctKeys is how many keys the bound tests cycle through: 16× the
// 256-entry cap of the process-global caches the keyed values replaced.
const distinctKeys = 4096

// maxRetainedHeap is the live-heap growth the bound tests allow after
// cycling distinctKeys keys. Retaining one expanded key per cycled key
// would hold several MiB; this leaves room only for runtime noise.
const maxRetainedHeap = 512 << 10

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkHeapBounded runs use and fails if the live heap afterwards is more
// than maxRetainedHeap above what it was before.
func checkHeapBounded(t *testing.T, what string, use func()) {
	t.Helper()
	before := liveHeap()
	use()
	if after := liveHeap(); after > before+maxRetainedHeap {
		t.Fatalf("%s: live heap grew by %d bytes after %d distinct keys (bound %d); expanded keys are being retained", what, after-before, distinctKeys, maxRetainedHeap)
	}
}

// TestCMACCacheBounded keys and uses a CMAC under each of distinctKeys
// keys, then checks that nothing retains their expanded state — the
// avsecd leak a per-key cache without a cap caused — and that a probe
// key's MAC is the same before and after.
func TestCMACCacheBounded(t *testing.T) {
	probe := []byte("cache-bound-probe")[:16]
	msg := []byte("msg")
	want := mustCMAC(t, probe).Sum(msg)
	checkHeapBounded(t, "CMAC", func() {
		for i := 0; i < distinctKeys; i++ {
			c := mustCMAC(t, []byte(fmt.Sprintf("cache-bound-%05d", i))[:16])
			c.Sum(msg)
			c.Sum([]byte("a longer message than one block"))
		}
	})
	if got := mustCMAC(t, probe).Sum(msg); got != want {
		t.Fatalf("probe MAC changed after cycling keys: %x vs %x", got, want)
	}
}

// TestAEADCacheBounded is the same bound check for the keyed GCM.
func TestAEADCacheBounded(t *testing.T) {
	probe := []byte("aead-bound-probe!")[:16]
	msg := []byte("msg")
	want := mustGCM(t, probe).Seal(nil, 1, 1, nil, msg)
	checkHeapBounded(t, "GCM", func() {
		for i := 0; i < distinctKeys; i++ {
			g := mustGCM(t, []byte(fmt.Sprintf("aead-bound-%06d", i))[:16])
			sealed := g.Seal(nil, 1, 1, nil, msg)
			if _, err := g.Open(nil, 1, 1, nil, sealed); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := mustGCM(t, probe).Seal(nil, 1, 1, nil, msg); !bytes.Equal(got, want) {
		t.Fatalf("probe seal changed after cycling keys: %x vs %x", got, want)
	}
}

// refAEAD is the per-call reference: a fresh crypto/aes + cipher.NewGCM
// for every frame and the SCI ‖ PN nonce, as the per-key free functions
// used to build them.
func refAEAD(t *testing.T, key []byte) cipher.AEAD {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	return aead
}

func refNonce(sci uint64, pn uint32) []byte {
	var n [12]byte
	binary.BigEndian.PutUint64(n[:8], sci)
	binary.BigEndian.PutUint32(n[8:], pn)
	return n[:]
}

// FuzzGCMEquivalence differentially fuzzes the keyed GCM against a
// per-call cipher.NewGCM. One GCM serves every step, so its reused
// nonce scratch must not carry anything between calls. It covers
// appending after an arbitrary dst prefix with and without spare
// capacity, sealing after a header that is also the AAD (the ESP and
// TLS wire layout), in-place sealing and opening, tag-only use (pt ==
// nil), and tampered input returning the one errGCMAuth sentinel.
// Wired into the CI fuzz-smoke job.
func FuzzGCMEquivalence(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte{}, uint8(0), []byte("payload"), []byte("aad"), uint64(1), uint32(1), uint16(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef"), []byte("hdr-prefix"), uint8(40), []byte{}, []byte{}, uint64(0xA1B2C3D4E5F60718), uint32(42), uint16(7))
	f.Add(make([]byte, 24), bytes.Repeat([]byte{0xa5}, 13), uint8(255), bytes.Repeat([]byte{1}, 300), bytes.Repeat([]byte{2}, 20), ^uint64(0), ^uint32(0), uint16(999))
	f.Fuzz(func(t *testing.T, key, prefix []byte, spare uint8, pt, aad []byte, sci uint64, pn uint32, tamper uint16) {
		if checkKey(key) != nil {
			if _, err := NewGCM(key); err == nil {
				t.Fatalf("NewGCM accepted a %d-byte key", len(key))
			}
			return
		}
		ref := refAEAD(t, key)
		g := mustGCM(t, key)
		nonce := refNonce(sci, pn)
		want := ref.Seal(nil, nonce, pt, aad)

		// Append after a prefix, with spare capacity or without.
		dst := make([]byte, len(prefix), len(prefix)+int(spare))
		copy(dst, prefix)
		got := g.Seal(dst, sci, pn, aad, pt)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("Seal after a %d-byte prefix (spare %d) differs from the reference", len(prefix), spare)
		}
		opened, err := g.Open(append([]byte(nil), prefix...), sci, pn, aad, want)
		if err != nil || !bytes.Equal(opened[:len(prefix)], prefix) || !bytes.Equal(opened[len(prefix):], pt) {
			t.Fatalf("Open after a prefix: %v", err)
		}

		// A header that is the AAD and the dst prefix at once.
		hdr := make([]byte, len(aad), len(aad)+len(pt)+16)
		copy(hdr, aad)
		wire := g.Seal(hdr, sci, pn, hdr, pt)
		if !bytes.Equal(wire[:len(aad)], aad) || !bytes.Equal(wire[len(aad):], want) {
			t.Fatal("Seal after its own AAD header differs from the reference")
		}

		// In place: seal pt's storage, then open it back in place.
		buf := make([]byte, len(pt), len(pt)+16)
		copy(buf, pt)
		sealed := g.Seal(buf[:0], sci, pn, aad, buf)
		if !bytes.Equal(sealed, want) {
			t.Fatal("in-place Seal differs from the reference")
		}
		if back, err := g.Open(sealed[:0], sci, pn, aad, sealed); err != nil || !bytes.Equal(back, pt) {
			t.Fatalf("in-place Open: %v", err)
		}

		// Tag only.
		tag := g.Seal(nil, sci, pn, aad, nil)
		if wantTag := ref.Seal(nil, nonce, nil, aad); !bytes.Equal(tag, wantTag) || len(tag) != 16 {
			t.Fatal("tag-only Seal differs from the reference")
		}
		if rest, err := g.Open(nil, sci, pn, aad, tag); err != nil || len(rest) != 0 {
			t.Fatalf("tag-only Open = %x, %v", rest, err)
		}

		// Tampering: a flipped bit in the sealed bytes or the AAD, or a
		// different packet number, fails with the sentinel.
		bad := append([]byte(nil), want...)
		bad[int(tamper)%len(bad)] ^= 1 << (tamper % 8)
		if _, err := g.Open(nil, sci, pn, aad, bad); err != errGCMAuth {
			t.Fatalf("tampered ciphertext: err %v, want the sentinel", err)
		}
		if len(aad) > 0 {
			badAAD := append([]byte(nil), aad...)
			badAAD[int(tamper)%len(badAAD)] ^= 0x80
			if _, err := g.Open(nil, sci, pn, badAAD, want); err != errGCMAuth {
				t.Fatalf("tampered AAD: err %v, want the sentinel", err)
			}
		}
		if _, err := g.Open(nil, sci, pn+1, aad, want); err != errGCMAuth {
			t.Fatalf("wrong PN: err %v, want the sentinel", err)
		}
	})
}
