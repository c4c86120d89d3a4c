// Command critloadd serves the paper's classification-and-simulation
// pipeline over HTTP: synchronous PTX load classification, asynchronous
// functional/timing simulation jobs on a bounded worker pool, a
// content-addressed result cache, Prometheus metrics and structured access
// logs with per-request IDs. See docs/SERVICE.md for the API contract and
// the operating guide.
//
// Usage:
//
//	critloadd                         # listen on :8321, one worker per CPU
//	critloadd -addr :9000 -workers 4  # custom bind and pool size
//	critloadd -cache 1024 -queue 512  # larger result cache and job queue
//	critloadd -data-dir /var/lib/critload      # durable job tier: journal +
//	                                  # result store, crash recovery on start
//	critloadd -log-format json        # machine-readable logs
//	critloadd -pprof localhost:6060   # expose net/http/pprof separately
//
// Every job simulates cold. -cache-dir is still accepted so that old start
// scripts keep working; it is ignored with one warning.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"critload/internal/daemon"
	"critload/internal/jobs"
	"critload/internal/obsv"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	addrFile := flag.String("addr-file", "",
		"write the bound listen address to this file once serving (for harnesses using :0)")
	workers := flag.Int("workers", 0, "simulation workers (0 = one per CPU)")
	queue := flag.Int("queue", jobs.DefaultQueueDepth, "job queue depth")
	cacheEntries := flag.Int("cache", jobs.DefaultCacheEntries,
		"result cache entries (negative disables caching)")
	cacheDir := flag.String("cache-dir", "",
		"deprecated and ignored: every job simulates cold")
	dataDir := flag.String("data-dir", "",
		"durable state directory; the job journal lives under <data-dir>/journal and results under <data-dir>/results (empty disables durability)")
	dataDiskBytes := flag.Int64("data-disk-bytes", 1<<30,
		"eviction budget in bytes for the on-disk result store (0 = unbounded)")
	grace := flag.Duration("grace", 30*time.Second,
		"shutdown grace period for draining running jobs")
	idleTimeout := flag.Duration("idle-timeout", daemon.DefaultIdleTimeout,
		"reap keep-alive connections idle this long (0 disables reaping)")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	flag.Parse()

	log := obsv.NewLogger(os.Stderr, *logFormat, obsv.ParseLevel(*logLevel))
	if *cacheDir != "" {
		log.Warn("-cache-dir is deprecated and ignored: every job simulates cold", "cache_dir", *cacheDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	err := daemon.Run(ctx, daemon.Config{
		Addr:          *addr,
		AddrFile:      *addrFile,
		PprofAddr:     *pprofAddr,
		Workers:       *workers,
		Queue:         *queue,
		CacheEntries:  *cacheEntries,
		DataDir:       *dataDir,
		DataDiskBytes: *dataDiskBytes,
		Grace:         *grace,
		IdleTimeout:   *idleTimeout,
		Log:           log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "critloadd:", err)
		os.Exit(1)
	}
}
