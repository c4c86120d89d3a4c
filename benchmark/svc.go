package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"critload/pkg/client"
)

// svcWarmup is the untimed load every service workload runs before its
// timed window.
func svcWarmup(cfg runConfig) time.Duration {
	if cfg.Smoke {
		return 200 * time.Millisecond
	}
	return 2 * time.Second
}

// svcOp is one request-reply exchange. n numbers the ops of the whole run
// (warm-up included), so a seed derived from it is never reused; worker is
// the client goroutine; span, when tracing, opens a child span of the op.
type svcOp func(ctx context.Context, worker, n int, span func(name string) (end func())) error

// noSpan is the span opener of an untraced op.
func noSpan(string) func() { return func() {} }

// svcLoad is a service workload's traffic: the op, what to check once the
// timed window has closed, and the per-job observations gathered on the way.
type svcLoad struct {
	op    svcOp
	after func(ctx context.Context) []string
	jobs  *jobLog
	// corpus is svc-classify's programs, kept for the parse and classify
	// probes of its traced run.
	corpus []corpusProgram
}

// jobLog collects what the job snapshots say about each timed job.
type jobLog struct {
	mu        sync.Mutex
	queueMS   []float64
	runMS     []float64
	warpInsts float64
}

func (l *jobLog) observe(j *client.Job, warpInsts uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !j.Started.IsZero() {
		l.queueMS = append(l.queueMS, float64(j.Started.Sub(j.Created).Nanoseconds())/1e6)
		l.runMS = append(l.runMS, float64(j.Finished.Sub(j.Started).Nanoseconds())/1e6)
	}
	l.warpInsts += float64(warpInsts)
}

func (l *jobLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queueMS, l.runMS, l.warpInsts = nil, nil, 0
}

// window is the outcome of one closed-loop stretch of load.
type window struct {
	ms     []float64 // latency of every op, failed ones included
	failed []string  // why each failed op failed
	wall   time.Duration
	// The same scaled to the reference machine's speed, segment by segment
	// (set by timedWindow only), with the daemon's CPU time beside them.
	scaledMS   []float64
	scaledWall float64 // seconds
	scaledCPU  float64 // seconds
	// clientCPU is the harness process's CPU time inside the segments, in
	// seconds as measured.
	clientCPU float64
}

// segment is how long the closed loop runs between two samples of the
// machine's speed: short enough that the speed seldom changes inside it.
const segment = 2 * time.Second

// timedWindow is closedLoop for a timed window: the load runs in segments,
// the machine's speed is sampled between them while the daemon idles, and
// each segment's latencies, wall time and daemon CPU time are scaled by the
// speed on either side of it.
func timedWindow(ctx context.Context, d *daemon, speed *speedometer, dur time.Duration,
	counter *atomic.Int64, rec *recorder, op svcOp) (window, error) {
	var win window
	calib := speed.sample()
	for left := dur; left > 0; left -= segment {
		cpu, err := d.cpuSeconds()
		if err != nil {
			return win, err
		}
		clientCPU := selfCPUSeconds()
		seg := closedLoop(ctx, min(left, segment), counter, rec, op)
		win.clientCPU += selfCPUSeconds() - clientCPU
		cpuAfter, err := d.cpuSeconds()
		if err != nil {
			return win, err
		}
		after := speed.sample()
		scale := toReference(calib, after)
		calib = after
		win.ms, win.failed = append(win.ms, seg.ms...), append(win.failed, seg.failed...)
		win.wall += seg.wall
		for _, ms := range seg.ms {
			win.scaledMS = append(win.scaledMS, ms*scale)
		}
		win.scaledWall += seg.wall.Seconds() * scale
		win.scaledCPU += (cpuAfter - cpu) * scale
	}
	return win, nil
}

// closedLoop drives svcClients client goroutines for dur: each sends its
// next request only after the previous reply. counter numbers the ops across
// windows; rec, when non-nil, records an "op" span per op.
func closedLoop(ctx context.Context, dur time.Duration, counter *atomic.Int64, rec *recorder, op svcOp) window {
	var (
		mu  sync.Mutex
		win window
		wg  sync.WaitGroup
	)
	begin := time.Now()
	deadline := begin.Add(dur)
	for worker := 0; worker < svcClients; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ms []float64
			var failed []string
			for time.Now().Before(deadline) && ctx.Err() == nil {
				n := int(counter.Add(1))
				span, root := noSpan, 0
				if rec != nil {
					root = rec.begin("op", 0, n)
					span = func(name string) func() {
						id := rec.begin(name, root, n)
						return func() { rec.end(id) }
					}
				}
				start := time.Now()
				err := op(ctx, worker, n, span)
				ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
				if rec != nil {
					rec.end(root)
				}
				if err != nil {
					failed = append(failed, fmt.Sprintf("op %d: %v", n, err))
				}
			}
			mu.Lock()
			win.ms, win.failed = append(win.ms, ms...), append(win.failed, failed...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	win.wall = time.Since(begin)
	return win
}

// service is a started critloadd child with its client, its traffic and the
// set-up time it took to get there.
type service struct {
	d       *daemon
	c       *client.Client
	load    *svcLoad
	speed   *speedometer
	counter atomic.Int64 // numbers the ops of the whole run
	dir     string       // scratch directory, removed by stop
	setupS  float64
}

// startService builds and starts the daemon, generates the workload's
// traffic and runs the untimed warm-up load. The caller must call stop.
func startService(ctx context.Context, cfg runConfig) (_ *service, err error) {
	s := &service{speed: newSpeedometer(runtime.NumCPU(), cfg.Smoke)}
	calib := s.speed.sample()
	buildStart := time.Now()
	bin, err := buildDaemon(ctx, cfg.OutDir)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(buildStart)
	if s.dir, err = os.MkdirTemp(cfg.OutDir, "run-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	cacheEntries := 0
	if cfg.W.Kind == kindCached {
		cacheEntries = cachedMemEntries
	}
	if s.d, err = startDaemon(ctx, bin, s.dir, cfg.W.Kind != kindClassify, cacheEntries); err != nil {
		return nil, err
	}
	if s.c, err = client.New(client.Config{BaseURL: "http://" + s.d.addr}); err != nil {
		return nil, err
	}
	if s.load, err = newSvcLoad(ctx, cfg, s.c); err != nil {
		return nil, err
	}
	if warm := closedLoop(ctx, svcWarmup(cfg), &s.counter, nil, s.load.op); len(warm.failed) > 0 {
		return nil, fmt.Errorf("warm-up load failed: %v", warm.failed[0])
	}
	s.load.jobs.reset()
	// Set-up is everything before the first timed op, less the time spent
	// compiling the daemon: that depends on the build cache, not on the
	// program. The warm-up load lasts a fixed time whatever the machine's
	// speed; the rest is scaled to the reference speed.
	work := time.Since(cfg.Start) - buildTime - svcWarmup(cfg)
	s.setupS = svcWarmup(cfg).Seconds() + work.Seconds()*toReference(calib, s.speed.sample())
	return s, nil
}

// stop ends the daemon, waits for it, removes its scratch directory and
// returns the daemon's peak RSS in MB (0 when it had already been stopped).
func (s *service) stop() float64 {
	rss := 0.0
	if s.d != nil {
		rss = s.d.stop()
	}
	if s.c != nil {
		s.c.Close()
	}
	os.RemoveAll(s.dir)
	return rss
}

// timed runs one timed window of the service's traffic.
func (s *service) timed(ctx context.Context, dur time.Duration, rec *recorder) (window, error) {
	return timedWindow(ctx, s.d, s.speed, dur, &s.counter, rec, s.load.op)
}

// runService runs a svc-* workload against a real critloadd child process.
func runService(ctx context.Context, cfg runConfig) (*outcome, error) {
	s, err := startService(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		return tracedService(ctx, cfg, s, dur)
	}
	out := newOutcome()
	before, err := s.d.heap()
	if err != nil {
		return nil, err
	}
	win, err := s.timed(ctx, dur, nil)
	if err != nil {
		return nil, err
	}
	after, err := s.d.heap()
	if err != nil {
		return nil, err
	}
	settle(out, win, s.load.after(ctx))
	ops := float64(len(win.ms))
	latencyMetrics(out, cfg.W, win.scaledMS, time.Duration(win.scaledWall*float64(time.Second)))
	out.notef("calibration loop %.1f ms (reference %.0f ms); unscaled op_p50_ms %.6g", s.speed.mean(), calibRefMS, median(win.ms))
	out.Values["setup_s"] = s.setupS
	out.Values["cpu_s_per_op"] = ratio(win.scaledCPU, ops)
	out.Values["alloc_mb_per_op"] = ratio((after.TotalAlloc-before.TotalAlloc)/1e6, ops)
	out.Values["peak_rss_mb"] = s.stop()
	return out, nil
}

// tracedService is the traced run of a service workload: a short untraced
// window for reference, then the traced one with spans on, the daemon's CPU
// profile running and /metrics read on both sides, then the probes.
func tracedService(ctx context.Context, cfg runConfig, s *service, dur time.Duration) (*outcome, error) {
	out := newOutcome()
	ref, err := s.timed(ctx, dur/4, nil)
	if err != nil {
		return nil, err
	}
	s.load.jobs.reset()
	tracedDur := dur - dur/4
	before, err := s.d.heap()
	if err != nil {
		return nil, err
	}
	scrapeBefore, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	var (
		samples []stackSample
		profErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		samples, profErr = s.d.cpuProfile(max(1, int(tracedDur.Seconds())))
	}()
	rec := newRecorder()
	win, err := s.timed(ctx, tracedDur, rec)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, fmt.Errorf("daemon CPU profile: %w", profErr)
	}
	after, err := s.d.heap()
	if err != nil {
		return nil, err
	}
	scrapeAfter, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	settle(out, win, s.load.after(ctx))

	// The layer metrics are host times as measured; only the metrics demoted
	// from the end-to-end list are scaled to the reference speed as those are.
	ops := float64(len(win.ms))
	p50 := median(win.ms)
	tailMetrics(out, win.scaledMS)
	hostCPUMetrics(out, samples)
	out.Values["error_rate"] = ratio(float64(out.Failed), float64(out.Attempted))
	out.Values["sim_kwarpinsts_per_s"] = ratio(s.load.jobs.warpInsts/1e3, win.scaledWall)
	out.Values["heap.mallocs_per_op"] = ratio(after.Mallocs-before.Mallocs, ops)
	out.Values["heap.gc_cycles_per_op"] = ratio(after.NumGC-before.NumGC, ops)
	out.Values["heap.gc_pause_ms_per_op"] = ratio(after.MeanPauseNs*(after.NumGC-before.NumGC)/1e6, ops)
	out.Values["trace.overhead_x"] = ratio(median(win.scaledMS), median(ref.scaledMS))
	out.Values["client.cpu_s_per_op"] = ratio(win.clientCPU, ops)
	clientLedger(out, indexSpans(rec.snapshot()), s.c.Stats())
	serviceLedger(out, scrapeAfter.delta(scrapeBefore), scrapeAfter, s.load.jobs, ops, p50)
	if err := serviceProbes(ctx, cfg, out, s.load, s.dir, p50); err != nil {
		return nil, err
	}
	out.Values["env.calib_ms"] = s.speed.mean()
	return out, rec.write(tracePath(cfg))
}

// settle turns a timed window and the after-window checks into op counts.
func settle(out *outcome, win window, late []string) {
	out.Attempted = len(win.ms)
	for _, why := range append(win.failed, late...) {
		out.fail("%s", why)
	}
	out.Failed = min(out.Failed, out.Attempted)
}

// newSvcLoad builds the workload's traffic from the seed, including any
// set-up traffic (svc-cached's cold pre-population).
func newSvcLoad(ctx context.Context, cfg runConfig, c *client.Client) (*svcLoad, error) {
	switch cfg.W.Kind {
	case kindCold:
		return coldLoad(cfg, c), nil
	case kindCached:
		return cachedLoad(ctx, cfg, c)
	default:
		return classifyLoad(cfg, c)
	}
}

// jobSeed spreads job seeds so that no two runs' or ops' seeds collide:
// the run's seed picks a block of a million, the op number the place in it.
func jobSeed(seed int64, n int) int64 { return seed*1_000_000 + int64(n) }

// simResult is the part of a job result the checks read.
type simResult struct {
	Cycles  int64 `json:"cycles"`
	Summary struct {
		WarpInsts uint64 `json:"warp_insts"`
	} `json:"summary"`
}

// runJob is client.RunJob; when tracing it is the same submit-then-wait with
// a span around each half.
func runJob(ctx context.Context, c *client.Client, spec client.JobSpec, span func(string) func()) (*client.Job, error) {
	end := span("client.submit")
	job, err := c.SubmitJob(ctx, spec)
	end()
	if err != nil || job.Terminal() {
		return job, err
	}
	end = span("client.wait")
	defer end()
	return c.WaitJob(ctx, job.ID, 0)
}

func clientSpec(spec simSpec, seed int64) client.JobSpec {
	return client.JobSpec{Workload: spec.Workload, Mode: "timing", Size: spec.Size, Seed: seed}
}

// checkDone is the check every job op shares: it ran to completion and
// simulated something.
func checkDone(job *client.Job) (simResult, error) {
	var res simResult
	if job.State != client.StateDone {
		return res, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if err := json.Unmarshal(job.Result, &res); err != nil {
		return res, fmt.Errorf("job %s result: %w", job.ID, err)
	}
	if res.Cycles <= 0 {
		return res, fmt.Errorf("job %s simulated %d cycles", job.ID, res.Cycles)
	}
	return res, nil
}

// coldLoad is svc-cold: every op submits a timing job with a seed no earlier
// op used, so the daemon must simulate it.
func coldLoad(cfg runConfig, c *client.Client) *svcLoad {
	spec := cfg.W.Specs[0]
	var mu sync.Mutex
	results := map[int64][]byte{}
	log := &jobLog{}
	return &svcLoad{
		jobs: log,
		op: func(ctx context.Context, _, n int, span func(string) func()) error {
			seed := jobSeed(cfg.Seed, n)
			job, err := runJob(ctx, c, clientSpec(spec, seed), span)
			if err != nil {
				return err
			}
			res, err := checkDone(job)
			if err != nil {
				return err
			}
			if job.CacheHit {
				return fmt.Errorf("job %s was a cache hit, not a cold run", job.ID)
			}
			log.observe(job, res.Summary.WarpInsts)
			mu.Lock()
			results[seed] = job.Result
			mu.Unlock()
			return nil
		},
		// Re-run a sample of the jobs in-process through the daemon's own
		// runner: the result on the wire must be byte-equal once compacted.
		after: func(ctx context.Context) []string {
			var bad []string
			seeds := make([]int64, 0, len(results))
			for seed := range results {
				seeds = append(seeds, seed)
			}
			sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
			stride := max(1, len(seeds)/coldSampleChecks)
			for i := 0; i < len(seeds) && i < stride*coldSampleChecks; i += stride {
				seed, got := seeds[i], results[seeds[i]]
				want, err := referenceResult(ctx, spec, seed)
				if err != nil {
					bad = append(bad, fmt.Sprintf("reference run of seed %d: %v", seed, err))
					continue
				}
				var compact bytes.Buffer
				if err := json.Compact(&compact, got); err != nil || !bytes.Equal(compact.Bytes(), want) {
					bad = append(bad, fmt.Sprintf("seed %d: result on the wire differs from the in-process run", seed))
				}
			}
			return bad
		},
	}
}

// cachedLoad is svc-cached: set-up runs cachedSpecs jobs cold, then every op
// resubmits one of them, picked by a seeded RNG per client.
func cachedLoad(ctx context.Context, cfg runConfig, c *client.Client) (*svcLoad, error) {
	spec := cfg.W.Specs[0]
	n := cachedSpecs
	if cfg.Smoke {
		n = 2 * cachedMemEntries
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = jobSeed(cfg.Seed, i)
	}
	want, err := runCold(ctx, c, spec, seeds)
	if err != nil {
		return nil, fmt.Errorf("pre-populating the cache: %w", err)
	}
	rngs := make([]*rand.Rand, svcClients)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(cfg.Seed*31 + int64(w)))
	}
	log := &jobLog{}
	return &svcLoad{
		jobs:  log,
		after: func(context.Context) []string { return nil },
		op: func(ctx context.Context, worker, _ int, span func(string) func()) error {
			i := rngs[worker].Intn(n)
			job, err := runJob(ctx, c, clientSpec(spec, seeds[i]), span)
			if err != nil {
				return err
			}
			res, err := checkDone(job)
			if err != nil {
				return err
			}
			if !job.CacheHit {
				return fmt.Errorf("job %s was simulated again, not served from cache", job.ID)
			}
			if !bytes.Equal(job.Result, want[i]) {
				return fmt.Errorf("job %s: cached result differs from the set-up run's", job.ID)
			}
			log.observe(job, res.Summary.WarpInsts)
			return nil
		},
	}, nil
}

// eachIndex calls fn(i) for every i in [0, n) from svcClients goroutines,
// each taking the next index when it is free, and returns the first error.
func eachIndex(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make(chan error, svcClients)
	for w := 0; w < svcClients; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					errs <- nil
					return
				}
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < svcClients; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runCold runs one cold job per seed, svcClients at a time, and returns each
// job's result bytes.
func runCold(ctx context.Context, c *client.Client, spec simSpec, seeds []int64) ([][]byte, error) {
	results := make([][]byte, len(seeds))
	err := eachIndex(len(seeds), func(i int) error {
		job, err := c.RunJob(ctx, clientSpec(spec, seeds[i]))
		if err == nil {
			_, err = checkDone(job)
		}
		if err == nil {
			results[i] = job.Result
		}
		return err
	})
	return results, err
}

// classifyLoad is svc-classify: a fixed cycle of one Classify per corpus
// program, one ClassifyBatch and one SubmitPTX, the corpus order shuffled by
// the seed.
func classifyLoad(cfg runConfig, c *client.Client) (*svcLoad, error) {
	corpus, err := classifyCorpus(cfg.Seed)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(corpus), func(i, j int) {
		corpus[i], corpus[j] = corpus[j], corpus[i]
	})
	batch := make([]client.BatchItem, classifyBatch)
	for i := range batch {
		batch[i] = client.BatchItem{ID: fmt.Sprintf("k%d", i), PTX: corpus[i%len(corpus)].PTX}
	}
	cycle := len(corpus) + 2
	return &svcLoad{
		jobs:   &jobLog{},
		corpus: corpus,
		after:  func(context.Context) []string { return nil },
		op: func(ctx context.Context, _, n int, _ func(string) func()) error {
			step := n % cycle
			switch {
			case step < len(corpus):
				res, err := c.Classify(ctx, corpus[step].PTX)
				if err != nil {
					return err
				}
				return checkKernels(corpus[step], res.Kernels)
			case step == len(corpus):
				res, err := c.ClassifyBatch(ctx, batch)
				if err != nil {
					return err
				}
				if len(res.Items) != len(batch) {
					return fmt.Errorf("batch answered %d of %d items", len(res.Items), len(batch))
				}
				for i, it := range res.Items {
					if !it.OK() || it.Result == nil {
						return fmt.Errorf("batch item %d: status %d: %s", i, it.Status, it.Error)
					}
					if err := checkKernels(corpus[i%len(corpus)], it.Result.Kernels); err != nil {
						return err
					}
				}
				return nil
			default:
				p := corpus[(n/cycle)%len(corpus)]
				res, err := c.SubmitPTX(ctx, p.PTX)
				if err != nil {
					return err
				}
				got := make([]client.Kernel, len(res.Kernels))
				for i, k := range res.Kernels {
					got[i] = client.Kernel{Name: k.Name, Deterministic: k.Deterministic, NonDeterministic: k.NonDeterministic}
				}
				return checkKernels(p, got)
			}
		},
	}, nil
}

// checkKernels compares a classify answer with the in-process reference:
// the same kernels in the same order with the same D and N load counts.
func checkKernels(want corpusProgram, got []client.Kernel) error {
	if len(got) != len(want.Kernels) {
		return fmt.Errorf("%s: %d kernels classified, want %d", want.Name, len(got), len(want.Kernels))
	}
	for i, k := range want.Kernels {
		if g := got[i]; g.Name != k.Name || g.Deterministic != k.D || g.NonDeterministic != k.N {
			return fmt.Errorf("%s/%s: got %s D=%d N=%d, want D=%d N=%d",
				want.Name, k.Name, g.Name, g.Deterministic, g.NonDeterministic, k.D, k.N)
		}
	}
	return nil
}
