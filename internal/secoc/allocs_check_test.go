package secoc

import "testing"

// TestVerifyRejectPathAllocs pins the allocation-free reject path: the
// MAC-truncation ablation feeds each receiver tens of thousands of
// forged PDUs, so a rejected Verify must not allocate (scratch MAC
// buffers, sentinel error, and the secchan candidate iterator all live
// on the stack or in the receiver). The wide window holds two
// candidates for the forgery's freshness bits, so the reject path
// steps the iterator past its first candidate.
func TestVerifyRejectPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"one-candidate", DefaultConfig(1)},
		{"two-candidates", Config{DataID: 1, MACBits: 24, FreshnessBits: 8, AcceptWindow: 300}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := []byte("0123456789abcdef")
			s, _ := NewSender(tc.cfg, key)
			r, _ := NewReceiver(tc.cfg, key)
			pdu, _ := s.Protect([]byte{1, 2, 3, 4})
			forged := append([]byte(nil), pdu...)
			forged[len(forged)-1] ^= 0xff
			n := testing.AllocsPerRun(1000, func() {
				if _, err := r.Verify(forged); err == nil {
					t.Fatal("forgery accepted")
				}
			})
			if n > 0 {
				t.Errorf("rejected Verify allocates %v per op, want 0", n)
			}
		})
	}
}
