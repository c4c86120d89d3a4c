package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"

	"critload/internal/jobs"
	"critload/internal/server"
	"critload/pkg/client"
)

// ExampleClient drives critloadd end to end against an in-process daemon:
// classify a kernel, run a timing job and read its Table III counters, see
// the same spec answered from the result cache, and read the line-attributed
// diagnostics of a malformed PTX submission. Against a running daemon, set
// BaseURL to its address instead, e.g. "http://localhost:8321".
func ExampleClient() {
	mgr, err := jobs.NewManager(jobs.Config{Workers: 1, Runner: server.SimRunner()})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close(context.Background())
	daemon := httptest.NewServer(server.New(mgr))
	defer daemon.Close()

	c, err := client.New(client.Config{BaseURL: daemon.URL})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	classified, err := c.Classify(ctx, kernelSrc)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range classified.Kernels {
		fmt.Printf("kernel %s: %d deterministic, %d non-deterministic loads\n",
			k.Name, k.Deterministic, k.NonDeterministic)
	}

	spec := client.JobSpec{Workload: "2mm", Mode: "timing", Size: 32, Seed: 1, MaxWarpInsts: 20000}
	job, err := c.RunJob(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	var result struct {
		Cycles   int64             `json:"cycles"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(job.Result, &result); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s: %d cycles, gld_request=%d l1_hit=%d l1_miss=%d\n", job.State, result.Cycles,
		result.Counters["gld_request"], result.Counters["l1_global_load_hit"], result.Counters["l1_global_load_miss"])

	again, err := c.SubmitJob(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmitted: state %s, cache_hit=%v\n", again.State, again.CacheHit)

	_, err = c.SubmitPTX(ctx, ".kernel broken\n    mov.u32 %r0, %r1, %r2;\n    exit;\n")
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		for _, d := range apiErr.Diagnostics {
			fmt.Printf("HTTP %d, line %d: %s\n", apiErr.Status, d.Line, d.Message)
		}
	}
	// Output:
	// kernel lin: 1 deterministic, 0 non-deterministic loads
	// job done: 7855 cycles, gld_request=2688 l1_hit=2560 l1_miss=1471
	// resubmitted: state done, cache_hit=true
	// HTTP 422, line 2: mov expects 2 operands, got 3
}
