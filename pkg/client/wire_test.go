package client_test

import (
	"bytes"
	"encoding/json"
	"go/build"
	"reflect"
	"strings"
	"testing"
	"time"

	"critload/internal/jobs"
	"critload/pkg/client"
)

// jsonFields marshals v and splits the object into its top-level members.
func jsonFields(t *testing.T, v any) map[string]json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestJobInfoMatchesClientJob pins the one wire body declared on both ends:
// the daemon writes jobs.JobInfo, the client reads client.Job. Every JSON
// name client.Job declares must be emitted by some JobInfo state, and each
// member must survive the trip JobInfo -> client.Job -> JSON byte for byte,
// which also pins that both sides agree on the member's JSON kind.
func TestJobInfoMatchesClientJob(t *testing.T) {
	t0 := time.Date(2024, 5, 1, 12, 0, 0, 123456789, time.UTC)
	spec := jobs.Spec{Workload: "2mm", Mode: jobs.ModeTiming, Size: 32, Seed: 1}
	base := jobs.JobInfo{ID: "j00000007", Spec: spec, Key: spec.Key().String(), Created: t0}

	queued := base
	queued.State = jobs.StateQueued

	running := base
	running.State = jobs.StateRunning
	running.Started = t0.Add(time.Millisecond)
	running.QueuedMillis = 1
	running.Progress = &jobs.Progress{Cycles: 4096, WarpInsts: 512, CyclesPerSec: 2.5e6, Updated: t0.Add(2 * time.Millisecond)}

	done := base
	done.State = jobs.StateDone
	done.Started, done.Finished = t0.Add(time.Millisecond), t0.Add(9*time.Millisecond)
	done.QueuedMillis, done.WallMillis = 1, 8
	done.CacheHit, done.Recovered = true, true
	done.Result = json.RawMessage(`{"workload":"2mm","cycles":7855}`)

	failed := base
	failed.State = jobs.StateFailed
	failed.Error = "boom"
	failed.Started, failed.Finished = t0, t0.Add(time.Millisecond)

	declared := map[string]bool{}
	jt := reflect.TypeOf(client.Job{})
	for i := range jt.NumField() {
		name, _, _ := strings.Cut(jt.Field(i).Tag.Get("json"), ",")
		declared[name] = false
	}
	for _, info := range []jobs.JobInfo{queued, running, done, failed} {
		sent := jsonFields(t, info)
		raw, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		var job client.Job
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatalf("%s: decoding JobInfo into client.Job: %v", info.State, err)
		}
		if job.State != string(info.State) {
			t.Errorf("state %q decoded as %q", info.State, job.State)
		}
		back := jsonFields(t, job)
		for name := range declared {
			want, ok := sent[name]
			if !ok {
				continue
			}
			declared[name] = true
			if got := back[name]; !bytes.Equal(got, want) {
				t.Errorf("%s: %q sent as %s, client.Job round-trips %s", info.State, name, want, got)
			}
		}
	}
	for name, seen := range declared {
		if !seen {
			t.Errorf("client.Job declares %q, but no JobInfo state emits it", name)
		}
	}
}

// TestPublicPackagesImportNoInternal keeps the public packages importable
// from outside the module: pkg/api depends on the standard library alone,
// pkg/client on the standard library plus pkg/api.
func TestPublicPackagesImportNoInternal(t *testing.T) {
	for dir, allowed := range map[string]map[string]bool{
		"../api": {},
		".":      {"critload/pkg/api": true},
	} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range pkg.Imports {
			first, _, _ := strings.Cut(path, "/")
			stdlib := !strings.Contains(first, ".") && first != "critload"
			if !stdlib && !allowed[path] {
				t.Errorf("package %s imports %s", pkg.Name, path)
			}
		}
	}
}
