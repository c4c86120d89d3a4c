package main

// ledger.go turns what a traced run recorded — spans, modelled-machine
// counters, /metrics deltas, job snapshots, probe timings — into the named
// per-layer metrics. A metric a workload has nothing to say about stays
// unset here and is printed as 0.

import (
	"context"
	"fmt"
	"os"
	"sync"

	"critload/pkg/client"
)

// simLedger fills in the layer metrics of an in-process workload from ops
// traced ops: span medians, and exact counts off the statistics collectors
// (the same on every op, so totals divide evenly).
func simLedger(o *outcome, x spanIndex, work workDone, ops int, functional bool) {
	n := float64(ops)
	m := work.model
	o.Values["workloads.setup_ms"] = median(x.perOp("workloads.setup"))
	o.Values["workloads.host_ms"] = median(x.perOp("workloads.host"))
	o.Values["dataflow.classify_ms"] = median(x.perOp("dataflow.classify"))
	o.Values["dataflow.classify_us_per_kernel"] = ratio(1e3*sum(x.perOp("dataflow.classify")), work.kernels)
	o.Values["stats.snapshot_ms"] = median(x.perOp("stats.snapshot"))
	o.Values["profiler.read_us"] = 1e3 * median(x.perOp("profiler.read"))
	o.Values["gpu.warp_insts"] = m.WarpInsts / n
	o.Values["coalesce.reqs_per_warp_d"] = ratio(m.Requests[0], m.GLoadWarps[0])
	o.Values["coalesce.reqs_per_warp_n"] = ratio(m.Requests[1], m.GLoadWarps[1])
	if functional {
		runMS := sum(x.perOp("emu.run"))
		o.Values["emu.run_ms"] = median(x.perOp("emu.run"))
		o.Values["emu.ns_per_warpinst"] = ratio(1e6*runMS, m.WarpInsts)
		return
	}
	launchUS := 1e3 * sum(x.perOp("gpu.launch"))
	o.Values["gpu.new_ms"] = median(x.perOp("gpu.new"))
	o.Values["gpu.launch_ms"] = median(x.perOp("gpu.launch"))
	o.Values["gpu.launches"] = x.countPerOp("gpu.launch")
	o.Values["gpu.us_per_kcycle"] = ratio(launchUS, m.Cycles/1e3)
	o.Values["gpu.us_per_stepped_kcycle"] = ratio(launchUS, (m.Cycles-work.skipped)/1e3)
	o.Values["gpu.skipped_fraction"] = ratio(work.skipped, m.Cycles)
	o.Values["gpu.cycles"] = m.Cycles / n
	o.Values["sm.ipc"] = ratio(m.WarpInsts, m.Cycles)
	o.Values["sm.ldst_busy_fraction"] = ratio(m.LDSTBusy, m.SMCycles)
	o.Values["sm.turnaround_cycles_d"] = ratio(m.TurnTotal[0], m.TurnOps[0])
	o.Values["sm.turnaround_cycles_n"] = ratio(m.TurnTotal[1], m.TurnOps[1])
	o.Values["cache.l1_accesses"] = (m.L1Acc[0] + m.L1Acc[1]) / n
	o.Values["cache.l1_miss_ratio_d"] = ratio(m.L1Miss[0], m.L1Acc[0])
	o.Values["cache.l1_miss_ratio_n"] = ratio(m.L1Miss[1], m.L1Acc[1])
	o.Values["cache.l1_resfail_per_access_d"] = ratio(m.L1Fail[0], m.L1Acc[0])
	o.Values["cache.l1_resfail_per_access_n"] = ratio(m.L1Fail[1], m.L1Acc[1])
	o.Values["cache.l2_miss_ratio"] = ratio(m.L2Miss, m.L2Acc)
}

// clientLedger fills in the client-side metrics of a service workload.
func clientLedger(o *outcome, x spanIndex, st client.StatsSnapshot) {
	o.Values["client.submit_ms"] = median(x.perOp("client.submit"))
	o.Values["client.wait_ms"] = median(x.perOp("client.wait"))
	o.Values["client.polls_per_job"] = ratio(float64(st["job_wait"].Count), float64(st["job_submit"].Count))
	retries := 0.0
	for _, op := range st {
		retries += float64(op.Retries)
	}
	o.Values["client.retries"] = retries
}

// httpEndpoints maps the daemon's route labels to metric-name suffixes.
var httpEndpoints = map[string]string{
	"/v1/jobs":           "jobs",
	"/v1/jobs/{id}":      "jobs_id",
	"/v1/classify":       "classify",
	"/v1/classify/batch": "classify_batch",
	"/v1/ptx":            "ptx",
}

// serviceLedger fills in what the daemon's /metrics (delta over the traced
// window, and absolute after it) and the job snapshots say. p50 is the
// window's median op latency.
func serviceLedger(o *outcome, delta, after promSeries, jobs *jobLog, ops, p50 float64) {
	for label, name := range httpEndpoints {
		series := fmt.Sprintf(`{endpoint=%q}`, label)
		o.Values["server.http_ms."+name] = 1e3 * ratio(
			delta["critloadd_http_request_seconds_sum"+series],
			delta["critloadd_http_request_seconds_count"+series])
	}
	o.Values["jobs.queue_wait_ms"] = median(jobs.queueMS)
	o.Values["jobs.run_ms"] = median(jobs.runMS)
	if len(jobs.runMS) > 0 {
		o.Values["svc.overhead_ms"] = p50 - median(jobs.runMS)
	}
	hits, misses := delta["critloadd_cache_hits_total"], delta["critloadd_cache_misses_total"]
	diskHits := delta["critloadd_resultstore_disk_hits_total"]
	o.Values["jobs.cache_hit_ratio"] = ratio(hits+diskHits, hits+misses)
	o.Values["jobs.executions_per_op"] = ratio(delta["critloadd_executions_total"], ops)
	o.Values["jobs.resultstore_puts_per_op"] = ratio(delta["critloadd_resultstore_puts_total"], ops)
	o.Values["jobs.resultstore_disk_hits_per_op"] = ratio(diskHits, ops)
	o.Values["journal.appends_per_op"] = ratio(delta["critloadd_journal_appends_total"], ops)
	o.Values["journal.syncs_per_op"] = ratio(delta["critloadd_journal_syncs_total"], ops)
	o.Values["journal.disk_mb"] = after["critloadd_journal_disk_bytes"] / 1e6
}

// probeReps is how often each probe repeats what it times.
func probeReps(cfg runConfig) int {
	if cfg.Smoke {
		return 5
	}
	return 100
}

// serviceProbes times, in-process and outside any op, the layers a service
// workload's ops pass through but that cannot be seen from outside the
// daemon. p50 is the traced window's median op latency, as measured.
func serviceProbes(ctx context.Context, cfg runConfig, o *outcome, load *svcLoad, dir string, p50 float64) error {
	rec := newRecorder()
	reps := probeReps(cfg)
	if cfg.W.Kind == kindClassify {
		passes := max(1, reps/10)
		if err := probeParseClassify(rec, load.corpus, passes); err != nil {
			return err
		}
		x := indexSpans(rec.snapshot())
		kb, kernels := 0.0, 0.0
		for _, p := range load.corpus {
			kb += float64(len(p.PTX)) / 1e3
			kernels += float64(len(p.Kernels))
		}
		classifyMS := sum(x.durations("dataflow.classify"))
		o.Values["ptx.parse_us_per_kb"] = ratio(1e3*sum(x.durations("ptx.parse")), kb*float64(passes))
		o.Values["dataflow.classify_ms"] = classifyMS / float64(passes)
		o.Values["dataflow.classify_us_per_kernel"] = ratio(1e3*classifyMS, kernels*float64(passes))
		return nil
	}

	probeDir, err := os.MkdirTemp(dir, "probe-")
	if err != nil {
		return err
	}
	spec := cfg.W.Specs[0]
	// Probe seeds sit far above any op number, so no probe job repeats a
	// job the daemon ran.
	payload, err := probeEncode(ctx, rec, spec, jobSeed(cfg.Seed, 400_000), reps)
	if err != nil {
		return err
	}
	if err := probeJournal(rec, probeDir, 2*reps); err != nil {
		return err
	}
	if err := probeResultStore(rec, probeDir, payload, reps); err != nil {
		return err
	}
	x := indexSpans(rec.snapshot())
	o.Values["server.result_bytes"] = float64(len(payload))
	for _, name := range []string{"server.encode", "journal.append_sync", "journal.append_nosync",
		"jobs.resultstore_put", "jobs.resultstore_get"} {
		o.Values[name+"_us"] = 1e3 * median(x.durations(name))
	}
	if cfg.W.Kind != kindCold {
		return nil
	}
	return coldJobLedger(ctx, cfg, o, probeDir, p50)
}

// coldJobLedger measures svc-cold's job without HTTP (Manager.Submit → Wait)
// and then span by span (the same srad/32 timing run taken apart), svcClients
// at a time both times so that the parts contend for the CPUs as the
// daemon's workers do, and computes ledger.coverage from the parts.
func coldJobLedger(ctx context.Context, cfg runConfig, o *outcome, dir string, p50 float64) error {
	rec := newRecorder()
	spec := cfg.W.Specs[0]
	n := max(3, probeReps(cfg)/4)
	if err := probeSubmitWait(ctx, rec, dir, spec, jobSeed(cfg.Seed, 500_000), n); err != nil {
		return err
	}
	var (
		mu   sync.Mutex
		work workDone
	)
	err := eachIndex(n, func(i int) error {
		op := i + 1
		r, err := runTimingTraced(ctx, rec, 0, op, spec, jobSeed(cfg.Seed, 600_000+i))
		if err != nil {
			return err
		}
		rec.time("profiler.read", 0, op, r.profilerRead)
		rec.time("dataflow.classify", 0, op, r.classifyProgram)
		mu.Lock()
		work.add([]*simRun{r})
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	x := indexSpans(rec.snapshot())
	simLedger(o, x, work, n, false)
	submitWait := median(x.durations("jobs.submit_wait"))
	o.Values["jobs.submit_wait_ms"] = submitWait
	o.Values["server.http_overhead_ms"] = p50 - submitWait
	// dataflow.classify_ms is left out of the sum: in a timing run it happens
	// inside the first LaunchKernel of each kernel, so gpu.launch_ms already
	// holds it.
	parts := o.Values["workloads.setup_ms"] + o.Values["gpu.new_ms"] + o.Values["gpu.launch_ms"] +
		o.Values["workloads.host_ms"] + o.Values["profiler.read_us"]/1e3 + o.Values["server.encode_us"]/1e3 +
		2*o.Values["journal.append_sync_us"]/1e3 + o.Values["jobs.resultstore_put_us"]/1e3 +
		o.Values["server.http_overhead_ms"]
	o.Values["ledger.coverage"] = ratio(parts, p50)
	return nil
}
