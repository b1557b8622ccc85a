// Command sketchd serves sketches over HTTP: a multi-tenant registry
// of named sketches (plain, sharded, windowed) with wire-v2 batched
// ingest, point/range/top-k queries, periodic checkpoints to a data
// directory with restore-on-boot, per-tenant load shedding, and a
// graceful drain on SIGINT/SIGTERM — stop accepting, let in-flight
// requests finish, write one final checkpoint, exit 0. See the
// README's Serving section for the endpoint reference.
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

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dataDir := flag.String("data", "", "checkpoint directory (empty disables persistence)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (0 disables)")
	maxInflight := flag.Int("max-inflight", 64, "per-tenant in-flight request cap (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	flag.Parse()

	if err := run(*addr, *dataDir, *ckptEvery, *maxInflight, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "sketchd:", err)
		os.Exit(1)
	}
}

func run(addr, dataDir string, ckptEvery time.Duration, maxInflight int, drainTimeout time.Duration) error {
	srv, err := server.New(server.Config{
		DataDir:         dataDir,
		CheckpointEvery: ckptEvery,
		MaxInflight:     maxInflight,
	})
	if err != nil {
		return err
	}

	// Bind before announcing: with -addr host:0 the kernel picks the
	// port, and scripts (and the smoke test) parse it from this line.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	httpSrv := srv.HTTPServer()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		return err // listener died before any signal
	case sig := <-sigc:
		fmt.Printf("caught %s, draining\n", sig)
	}

	// Drain: stop accepting and wait for in-flight requests, then
	// write the final checkpoint so a restart answers bit-identically.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := srv.Drain(); err != nil {
		return err
	}
	fmt.Println("drained cleanly")
	return nil
}
