package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the daemon's connection timeouts: a
// bounded header read and a bounded keep-alive idle, and no read or
// write timeout, which would cut a long campaign stream.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.Handler == nil {
		t.Fatal("server has no handler")
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, want the constant %v (> 0)", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout %v, want the constant %v (> 0)", hs.IdleTimeout, idleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v: either would cut a streaming campaign reply", hs.ReadTimeout, hs.WriteTimeout)
	}
}
