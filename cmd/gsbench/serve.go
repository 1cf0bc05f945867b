package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gsdram/internal/farm"
	"gsdram/internal/resultcache"
)

// serveCmd implements `gsbench serve`: a long-running simulation-farm
// server exposing the HTTP/JSON job API (internal/farm) over a
// content-addressed result cache. Multiple servers pointed at one
// cache directory shard sweeps across processes or hosts: every
// completed point is visible to all of them. The server observes
// itself: GET /metrics exposes Prometheus counters and histograms, and
// -pprof mounts net/http/pprof under /debug/pprof/. SIGINT/SIGTERM
// drains gracefully — new sweeps are rejected with 503, accepted
// points finish, then the process exits.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8573", "listen address")
	cacheDir := fs.String("cache-dir", "gsbench-cache", "content-addressed result cache directory (sharable between servers)")
	workers := fs.Int("farm-workers", 0, "concurrent sweep points in this process (0 = GOMAXPROCS); telemetered and untelemetered points alike run concurrently, and each point still parallelizes internally per its spec")
	flightDir := fs.String("flight-dir", "", "directory for flight-recorder dumps of failed points (one <spechash>.flight.ndjson per failed point; empty = disabled)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Minute, "how long a shutdown signal waits for in-flight points")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gsbench serve [-addr HOST:PORT] [-cache-dir DIR] [-farm-workers N] [-flight-dir DIR] [-log-format text|json] [-pprof]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("serve: unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler).With("component", "gsbench-serve")

	cache, err := resultcache.Open(*cacheDir)
	if err != nil {
		return err
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return err
		}
	}
	engine := farm.New(cache, farm.Options{Workers: *workers, Logger: logger, FlightDir: *flightDir})
	engine.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fsrv := farm.NewServer(engine, logger)
	if *pprofOn {
		fsrv.EnablePprof()
	}
	srv := &http.Server{Handler: fsrv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Info("shutdown signal: draining (rejecting new sweeps, finishing in-flight points)")
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := engine.Drain(dctx)
		if err != nil {
			logger.Error("drain failed, exiting with points still queued", "err", err)
		} else {
			logger.Info("drain complete")
		}
		drained <- err
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx)
	}()

	logger.Info("listening", "url", fmt.Sprintf("http://%s", ln.Addr()),
		"cache", cache.Dir(), "workers", engine.Workers(), "pprof", *pprofOn)
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-drained
}
