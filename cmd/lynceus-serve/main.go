// Command lynceus-serve is the crash-safe multi-campaign tuning server: an
// HTTP/JSON API over the stepwise campaign engine with admission control,
// per-client rate limiting, overload shedding, a per-step deadline that
// quarantines stuck steps, write-ahead snapshotting and graceful drain. Campaigns survive kill -9:
// on restart the server rescans its state directory and resumes every
// campaign bitwise from its last durable snapshot.
//
// Usage:
//
//	lynceus-serve -state-dir /var/lib/lynceus [-addr 127.0.0.1:8080]
//
// The listening address is printed on the first line of stdout (useful with
// -addr 127.0.0.1:0). SIGTERM or SIGINT drains in-flight steps — each one
// snapshotting durably — then exits; a second signal aborts the drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		stateDir     = flag.String("state-dir", "", "durable state directory (required)")
		queueDepth   = flag.Int("queue", 64, "admission queue depth (full queue sheds with 503)")
		workers      = flag.Int("workers", 0, "step executor goroutines (0 = min(GOMAXPROCS, 4))")
		maxCampaigns = flag.Int("max-campaigns", 1024, "live campaign cap (past it creation sheds with 503)")
		rate         = flag.Float64("rate", 50, "per-client request rate limit, tokens/second (negative disables)")
		burst        = flag.Float64("burst", 0, "per-client burst size (0 = 2*rate)")
		stepDeadline = flag.Duration("step-deadline", 2*time.Minute, "per-step deadline; an overrunning step is cancelled (negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	)
	flag.Parse()
	if *stateDir == "" {
		fmt.Fprintln(os.Stderr, "lynceus-serve: -state-dir is required")
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "lynceus-serve: ", log.LstdFlags|log.Lmsgprefix)
	srv, err := serve.New(serve.Config{
		StateDir:     *stateDir,
		MaxCampaigns: *maxCampaigns,
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		Rate:         *rate,
		Burst:        *burst,
		StepDeadline: *stepDeadline,
		Logf: func(format string, args ...any) {
			logger.Printf(format, args...)
		},
	})
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The first stdout line is the listening address: scripts and tests
	// started with port 0 discover the real port here.
	fmt.Printf("listening on %s\n", ln.Addr())
	os.Stdout.Sync()
	logger.Printf("serving %d resumed campaigns from %s on %s",
		srv.Stats().ResumedOnStart, *stateDir, ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		logger.Printf("received %s, draining (budget %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigCh
			logger.Printf("second signal, aborting drain")
			cancel()
		}()
		if err := srv.Drain(ctx); err != nil {
			logger.Printf("%v", err)
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = httpSrv.Shutdown(shutCtx)
		shutCancel()
		cancel()
		_ = srv.Close()
		logger.Printf("bye")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	}
}
