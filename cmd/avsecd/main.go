// Command avsecd is the fleet-scale campaign daemon: a single-binary,
// stdlib-only HTTP service that runs experiment campaigns on demand
// instead of one CLI invocation at a time. It accepts campaign specs
// over HTTP/JSON, shards cells and replicates across worker goroutines
// through the same two-level budget `avsec campaign` uses, streams
// results back incrementally as NDJSON, and serves repeated sweeps
// from a content-addressed result cache keyed by (experiment, seed,
// binary content hash) — so a repeat sweep of an unchanged build is
// free and byte-identical.
//
// Usage:
//
//	avsecd [-addr HOST:PORT] [-jobs N] [-scenarios DIR]
//	       [-cache-dir DIR] [-no-cache]
//
// On startup the daemon announces the resolved listen address on
// stdout as
//
//	avsecd: listening on http://127.0.0.1:8787
//
// which is how scripts find the port when -addr ends in :0. SIGINT or
// SIGTERM drains in-flight campaigns and exits. The HTTP API —
// endpoints, campaign-spec schema, NDJSON stream format, cache
// semantics, and the determinism contract — is documented in
// docs/DAEMON.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autosec/internal/config"
	"autosec/internal/server"

	// The demo drop-in extensions register at init so the daemon can
	// compile and serve the scenarios under internal/ext/demo/scenario;
	// avsec carries the same import, keeping the fleet fingerprint equal
	// across the CLI and daemon builds.
	_ "autosec/internal/ext/demo"
)

const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers (slow-loris protection).
	readHeaderTimeout = 5 * time.Second
	// idleTimeout bounds how long a keep-alive connection may wait for
	// its next request before the server closes it.
	idleTimeout = 120 * time.Second
)

func main() {
	cfg := config.Default()
	fs := flag.NewFlagSet("avsecd", flag.ExitOnError)
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address, host:port (port 0 = kernel-assigned)")
	fs.IntVar(&cfg.Jobs, "jobs", cfg.Jobs, "default campaign worker-pool size, 0 = GOMAXPROCS")
	fs.StringVar(&cfg.ScenarioDir, "scenarios", cfg.ScenarioDir, "scenario corpus directory")
	fs.StringVar(&cfg.Cache.Dir, "cache-dir", cfg.Cache.Dir, "result cache directory")
	fs.BoolVar(&cfg.Cache.Disabled, "no-cache", cfg.Cache.Disabled, "disable the result cache entirely")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "avsecd: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}

	srv, err := server.New(cfg)
	if err != nil {
		fail(err)
	}

	// Listen before announcing, so the printed address is the resolved
	// one (meaningful when the configured port is 0).
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("avsecd: listening on http://%s\n", ln.Addr())

	hs := newHTTPServer(srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "avsecd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			// In-flight campaigns outlasted the grace period; close
			// their connections rather than hang forever.
			hs.Close()
		}
	}
}

// newHTTPServer wraps the daemon's handler in an http.Server with its
// connection timeouts. Campaign replies stream for as long as their
// cells run, so no read or write timeout bounds a whole request.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "avsecd:", err)
	os.Exit(1)
}
