package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// selfPeakRSSMB is this process's maximum resident set size so far.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// procCPUSeconds reads another process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	fields := strings.Fields(s[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return (utime + stime) / 100, nil
}

// The sandbox this benchmark runs in changes speed under it. Each virtual CPU
// moves between a fast and a slow clock (about 1.3x apart) for anything from
// a fraction of a second to minutes, and for minutes at a time whatever
// misses the cache runs up to 1.7x slower. Left alone that puts a spread of
// 13-30 % on every time measured. So the harness times a fixed calibration
// loop — nothing of the repo's code — right before and after each stretch it
// measures, and scales the stretch's times to the speed of a reference
// machine on which the loop takes calibRefMS. The loop is half arithmetic in
// registers, which follows the clock, and half a pointer chase through 1 MB,
// which follows the contention for cache; measured against ALU-only, chase-
// only, larger-array and allocating loops, this mix roughly halved the
// spread of a 1-2 s simulation in both kinds of noise, and no other did.

// calibRefMS is the calibration loop's time on the reference machine: the
// 2-CPU development box at its fastest.
const calibRefMS = 60.0

// calibReps is how many times one sample runs the loop (about 60 ms each).
const calibReps = 3

// newSpeedometer samples on threads goroutines at once; the smoke profile
// makes do with one loop per sample.
func newSpeedometer(threads int, smoke bool) *speedometer {
	if smoke {
		return &speedometer{threads: threads, reps: 1}
	}
	return &speedometer{threads: threads, reps: calibReps}
}

// calibChase is one random cycle through 1 MB of uint32 indices, the same on
// every run.
var calibChase = func() []uint32 {
	const n = 1 << 18
	perm := rand.New(rand.NewSource(1)).Perm(n)
	next := make([]uint32, n)
	for i, p := range perm {
		next[p] = uint32(perm[(i+1)%n])
	}
	return next
}()

// calibSink keeps the calibration loop's results alive.
var calibSink atomic.Uint64

// calibLoop is the calibration loop: about 30 ms of xorshift in registers,
// then about 30 ms of dependent loads through calibChase.
func calibLoop() {
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	p := uint32(0)
	for i := 0; i < 5_000_000; i++ {
		p = calibChase[p]
		x += uint64(p)
	}
	calibSink.Add(x)
}

// speedometer samples the machine's speed. threads is how many goroutines
// spin at once: 1 for an in-process workload, whose simulation runs on one
// goroutine; one per CPU for a service workload, whose daemon uses them all.
type speedometer struct {
	threads, reps int
	samples       []float64
}

// sample times the calibration loop and returns the mean time of one loop in
// ms.
func (s *speedometer) sample() float64 {
	times := make([]float64, s.threads)
	var wg sync.WaitGroup
	for t := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for rep := 0; rep < s.reps; rep++ {
				calibLoop()
			}
			times[t] = float64(time.Since(start).Nanoseconds()) / 1e6 / float64(s.reps)
		}()
	}
	wg.Wait()
	ms := sum(times) / float64(len(times))
	s.samples = append(s.samples, ms)
	return ms
}

// mean is the mean of every sample taken: the run's env.calib_ms.
func (s *speedometer) mean() float64 { return ratio(sum(s.samples), float64(len(s.samples))) }

// toReference is the factor that scales a time measured between two samples
// to the reference machine's speed.
func toReference(before, after float64) float64 { return calibRefMS / ((before + after) / 2) }

// environment describes where a set of runs was made; it is recorded in the
// result-set file so two sets can be told apart.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	OutDirFS   string `json:"out_dir_fs"`
	Commit     string `json:"commit"`
}

func describeEnvironment(outDir string) environment {
	e := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", OutDirFS: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(outDir, &st); err == nil {
		e.OutDirFS = fsName(int64(st.Type))
	}
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(".git/" + ref); err == nil {
				head = strings.TrimSpace(string(b))
			}
		}
		e.Commit = head
	}
	return e
}

// fsName names the filesystem magic numbers a temp dir is likely to sit on.
func fsName(magic int64) string {
	switch magic {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
