// Package daemon is critloadd's composition root: it wires the durable job
// tier (write-ahead journal + on-disk result store), the jobs manager, and
// the HTTP servers into one Run function.
// It lives in a package of its own — rather than in cmd/critloadd — so
// the crash-recovery harness can run a real daemon in a forked test
// binary and kill it at arbitrary points.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"critload/internal/jobs"
	"critload/internal/server"
)

// DefaultIdleTimeout reaps keep-alive connections that have sat idle for
// two minutes. Before it existed, a soak's worth of pooled client
// connections (or a slow leak of abandoned ones) accumulated unboundedly —
// each holding a file descriptor and a read buffer for the daemon's
// lifetime.
const DefaultIdleTimeout = 2 * time.Minute

// Config is everything critloadd's flags select.
type Config struct {
	// Addr is the API listen address (e.g. ":8321"; ":0" for ephemeral).
	Addr string
	// AddrFile, when set, receives the bound listen address (atomically,
	// temp file + rename) once the listener is up. Harnesses starting the
	// daemon on an ephemeral port poll it to discover where to connect.
	AddrFile string
	// PprofAddr serves net/http/pprof on its own listener (empty disables).
	PprofAddr string

	// Workers, Queue and CacheEntries size the jobs manager.
	Workers, Queue, CacheEntries int

	// DataDir enables the durable job tier: the write-ahead journal lives
	// under <DataDir>/journal and the content-addressed result store under
	// <DataDir>/results. On startup the journal is replayed — jobs that
	// were queued or running when the last process died are completed from
	// the store or re-enqueued. Empty disables durability.
	DataDir string
	// DataDiskBytes is the result store's eviction budget (0 = unbounded).
	DataDiskBytes int64

	// Grace bounds the shutdown drain; IdleTimeout reaps idle keep-alive
	// connections (0 disables reaping).
	Grace       time.Duration
	IdleTimeout time.Duration

	// Log receives the daemon's structured logs (nil discards).
	Log *slog.Logger
}

// Run builds the daemon from cfg, serves until ctx is cancelled (or the
// listener fails), then drains and shuts down. It owns every component's
// lifecycle; the caller owns signal handling via ctx.
func Run(ctx context.Context, cfg Config) error {
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	mcfg := jobs.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.Queue,
		CacheEntries: cfg.CacheEntries,
		Runner:       server.SimRunner(),
	}
	if cfg.DataDir != "" {
		results, err := jobs.OpenResultStore(filepath.Join(cfg.DataDir, "results"), cfg.DataDiskBytes)
		if err != nil {
			return fmt.Errorf("opening result store: %w", err)
		}
		mcfg.Results = results
		mcfg.JournalDir = filepath.Join(cfg.DataDir, "journal")
		log.Info("durable tier enabled", "data_dir", cfg.DataDir, "result_budget_bytes", cfg.DataDiskBytes)
	}
	mgr, err := jobs.NewManager(mcfg)
	if err != nil {
		return err
	}
	if rec := mgr.Recovery(); rec.Enabled {
		log.Info("journal replayed",
			"records", rec.Records, "jobs", rec.Jobs, "requeued", rec.Requeued,
			"completed_from_store", rec.CompletedFromStore,
			"results_missing", rec.ResultsMissing, "unrecoverable", rec.Unrecoverable,
			"truncated_bytes", rec.TruncatedBytes, "dropped_segments", rec.DroppedSegments)
	}

	httpSrv := NewAPIServer(cfg.Addr,
		server.New(mgr, server.WithLogger(log)), cfg.IdleTimeout)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), cfg.Grace)
		defer cancel()
		mgr.Close(drainCtx)
		return fmt.Errorf("listen %s: %w", cfg.Addr, err)
	}
	if cfg.AddrFile != "" {
		if err := writeAddrFile(cfg.AddrFile, ln.Addr().String()); err != nil {
			ln.Close()
			return err
		}
	}

	if cfg.PprofAddr != "" {
		pprofSrv := PprofServer(cfg.PprofAddr)
		defer pprofSrv.Close()
		go func() {
			log.Info("pprof listening", "addr", cfg.PprofAddr)
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof server", "error", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", ln.Addr().String(),
			"workers", cfg.Workers, "queue", cfg.Queue, "cache", cfg.CacheEntries)
		errCh <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain the pool;
	// running jobs get the full grace period before their contexts are
	// cancelled. Manager.Close also compacts and closes the journal, so
	// the next start replays a minimal log.
	log.Info("shutting down, draining jobs", "grace", cfg.Grace)
	graceCtx, cancel := context.WithTimeout(context.Background(), cfg.Grace)
	defer cancel()
	if err := httpSrv.Shutdown(graceCtx); err != nil {
		log.Warn("http shutdown", "error", err)
	}
	if err := mgr.Close(graceCtx); err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("draining jobs: %w", err)
	}
	log.Info("drained")
	return nil
}

// writeAddrFile publishes the bound address atomically so a poller never
// reads a half-written file.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return fmt.Errorf("writing addr file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("writing addr file: %w", err)
	}
	return nil
}

// NewAPIServer builds the public API's http.Server with its timeout
// policy:
//
//   - ReadHeaderTimeout bounds a slow-loris header dribble.
//   - ReadTimeout bounds reading one full request (headers + the ≤4 MiB
//     body). It does not bound handler execution: net/http clears the read
//     deadline once the handler takes over the connection's background
//     read.
//   - IdleTimeout reaps parked keep-alive connections between requests.
//   - WriteTimeout deliberately stays 0: GET /v1/jobs/{id}?wait_ms=N holds
//     the response open for a caller-chosen long-poll window, and a write
//     deadline would sever those (and slow multi-minute simulate results)
//     mid-response. Job wall time is bounded per job via timeout_ms
//     instead.
func NewAPIServer(addr string, h http.Handler, idleTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       idleTimeout,
	}
}

// PprofServer builds the profiling endpoint on its own mux and listener so
// the profiler is never exposed on the public API address.
func PprofServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}
