package server_test

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"critload/internal/jobs"
	"critload/internal/server"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/metrics_catalog.golden from the current /metrics catalogue")

// catalog reduces a scrape to its sorted # HELP / # TYPE lines: the names,
// types and help texts a dashboard depends on, without the sample values.
func catalog(body string) []string {
	var lines []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return lines
}

// conditionalFamily matches the families that exist only with -data-dir
// (journal + result store).
var conditionalFamily = regexp.MustCompile(
	`^# (HELP|TYPE) critloadd_(journal_|resultstore_|jobs_recovered_total)`)

// TestMetricsCatalogGolden pins the /metrics catalogue — every family's
// name, type and help text — of a daemon with the durable tier, pins which of those families a plain daemon omits, and
// requires docs/SERVICE.md's metric tables to list every family.
// Regenerate deliberately with: go test ./internal/server -run Catalog -update-golden
func TestMetricsCatalogGolden(t *testing.T) {
	dir := t.TempDir()
	results, err := jobs.OpenResultStore(filepath.Join(dir, "results"), 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.NewManager(jobs.Config{
		Workers: 1, Runner: server.SimRunner(),
		JournalDir: filepath.Join(dir, "journal"), Results: results,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})

	// The per-status request counter registers on the first finished
	// request, so serve one before scraping.
	getJSON(t, ts.URL+"/healthz", nil)
	full := catalog(scrapeMetrics(t, ts.URL))

	const goldenPath = "testdata/metrics_catalog.golden"
	got := strings.Join(full, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics catalogue drifted from %s (regenerate deliberately with -update-golden):\n got:\n%s\nwant:\n%s",
			goldenPath, got, want)
	}

	// A daemon without -data-dir exports the same catalogue minus the store
	// and journal families.
	plain, _ := newService(t, server.SimRunner(), 1)
	getJSON(t, plain.URL+"/healthz", nil)
	var wantPlain []string
	for _, line := range full {
		if !conditionalFamily.MatchString(line) {
			wantPlain = append(wantPlain, line)
		}
	}
	if gotPlain := catalog(scrapeMetrics(t, plain.URL)); strings.Join(gotPlain, "\n") != strings.Join(wantPlain, "\n") {
		t.Errorf("plain daemon catalogue:\n got:\n%s\nwant:\n%s",
			strings.Join(gotPlain, "\n"), strings.Join(wantPlain, "\n"))
	}

	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range full {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			if !strings.Contains(string(doc), "| `"+name+"` |") {
				t.Errorf("docs/SERVICE.md metric tables do not list %s", name)
			}
		}
	}
}
