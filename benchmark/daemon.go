package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon builds ./cmd/critloadd into outDir and returns the binary's
// path. The go tool's cache makes every build after the first a no-op.
func buildDaemon(ctx context.Context, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "critloadd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/critloadd")
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building critloadd: %w\n%s", err, b)
	}
	return bin, nil
}

// daemon is one critloadd child process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string // API listen address
	pprofAddr string
	stderr    bytes.Buffer
}

// startDaemon starts critloadd under dir and waits until it answers
// /healthz. durable turns on -data-dir and -cache-dir (journal fsync on the
// ack path); cacheEntries > 0 sets -cache.
func startDaemon(ctx context.Context, bin, dir string, durable bool, cacheEntries int) (*daemon, error) {
	// Both ports are picked here, together: were the API left to bind :0, it
	// could be handed the very port just picked for pprof.
	addrs, err := freeLocalAddrs(2)
	if err != nil {
		return nil, err
	}
	pprofAddr := addrs[1]
	addrFile := filepath.Join(dir, "addr")
	args := []string{"-addr", addrs[0], "-addr-file", addrFile, "-workers", strconv.Itoa(svcClients),
		"-log-level", "error", "-pprof", pprofAddr}
	if durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"), "-cache-dir", filepath.Join(dir, "cache"))
	}
	if cacheEntries > 0 {
		args = append(args, "-cache", strconv.Itoa(cacheEntries))
	}
	d := &daemon{cmd: exec.Command(bin, args...), pprofAddr: pprofAddr}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting critloadd: %w", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			d.addr = string(b)
			if resp, err := http.Get("http://" + d.addr + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("critloadd did not come up: %s", d.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// freeLocalAddrs finds n distinct loopback ports nobody listens on right now.
func freeLocalAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// stop terminates the daemon, waits for it to exit and returns its peak
// resident set size in MB.
func (d *daemon) stop() float64 {
	if d.cmd.ProcessState != nil {
		return 0 // already stopped
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
		}
	}()
	_ = d.cmd.Wait()
	close(done)
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func (d *daemon) cpuSeconds() (float64, error) { return procCPUSeconds(d.cmd.Process.Pid) }

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, nil
}

// scrape reads the daemon's /metrics.
func (d *daemon) scrape() (promSeries, error) {
	b, err := httpGet("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(b)), nil
}

// heapCounters are the daemon's cumulative runtime.MemStats counters.
type heapCounters struct {
	TotalAlloc, Mallocs, NumGC float64
	// MeanPauseNs is the mean of the last ≤256 GC pauses: the text profile
	// prints MemStats.PauseNs, a ring of that size, but not PauseTotalNs.
	MeanPauseNs float64
}

var (
	memStatLine = regexp.MustCompile(`(?m)^# (TotalAlloc|Mallocs|NumGC) = (\d+)$`)
	pauseLine   = regexp.MustCompile(`(?m)^# PauseNs = \[([\d ]*)\]$`)
)

// heap reads the MemStats block that the pprof listener's text heap profile
// ends with.
func (d *daemon) heap() (heapCounters, error) {
	var h heapCounters
	b, err := httpGet("http://" + d.pprofAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return h, err
	}
	for _, m := range memStatLine.FindAllSubmatch(b, -1) {
		v, _ := strconv.ParseFloat(string(m[2]), 64)
		switch string(m[1]) {
		case "TotalAlloc":
			h.TotalAlloc = v
		case "Mallocs":
			h.Mallocs = v
		case "NumGC":
			h.NumGC = v
		}
	}
	if h.TotalAlloc == 0 {
		return h, fmt.Errorf("no MemStats block in the daemon's heap profile")
	}
	if m := pauseLine.FindSubmatch(b); m != nil {
		var pauses []float64
		for _, f := range strings.Fields(string(m[1])) {
			if v, _ := strconv.ParseFloat(f, 64); v > 0 {
				pauses = append(pauses, v)
			}
		}
		h.MeanPauseNs = ratio(sum(pauses), float64(len(pauses)))
	}
	return h, nil
}

// cpuProfile samples the daemon's CPU for the given whole seconds through
// its pprof listener; it blocks that long.
func (d *daemon) cpuProfile(seconds int) ([]stackSample, error) {
	b, err := httpGet(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", d.pprofAddr, seconds))
	if err != nil {
		return nil, err
	}
	return parseProfile(b)
}
