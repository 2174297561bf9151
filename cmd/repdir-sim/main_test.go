package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"nope", "shard"} {
		if err := run([]string{"-experiment", exp}); err == nil {
			t.Errorf("unknown experiment %q should fail", exp)
		}
	}
}

func TestRunSmallExperiments(t *testing.T) {
	// Tiny op counts keep this a smoke test of the full wiring.
	for _, exp := range []string{"fig16", "sticky", "batch"} {
		if err := run([]string{"-experiment", exp, "-ops", "200"}); err != nil {
			t.Errorf("experiment %s: %v", exp, err)
		}
	}
	if err := run([]string{"-experiment", "conc", "-ops", "2", "-clients", "2", "-latency", "1us"}); err != nil {
		t.Errorf("experiment conc: %v", err)
	}
}

// TestRunTrafficServesMetrics is the end-to-end check of the metrics
// wiring: a short traffic run with -obs.addr must serve a Prometheus
// exposition carrying the suite's event counters, the members' call
// counters and their call latency histograms while the workload is
// still running.
func TestRunTrafficServesMetrics(t *testing.T) {
	// Reserve an ephemeral port, release it, and hand it to the flag.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-experiment", "traffic",
			"-duration", "1s", "-ops", "30", "-obs.addr", addr})
	}()

	// Scrape mid-run until the exposition is populated: a family's header
	// is there from the start, but a member's samples only once a quorum
	// has included it.
	wanted := []string{
		"repdir_suite_events_total{event=\"commits\"}",
		"repdir_rep_ops_total{member=\"rep0\",op=\"lookups\"}",
		"# TYPE repdir_rep_call_latency_seconds histogram",
		"repdir_rep_call_latency_seconds_bucket{member=\"rep0\",op=\"lookup\"",
	}
	missing := wanted
	url := fmt.Sprintf("http://%s/metrics", addr)
	for i := 0; i < 100 && len(missing) > 0; i++ {
		resp, err := http.Get(url)
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				missing = nil
				for _, want := range wanted {
					if !strings.Contains(string(b), want) {
						missing = append(missing, want)
					}
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, want := range missing {
		t.Errorf("no mid-run exposition had %q", want)
	}
}

func TestRunFigure14OpsOverride(t *testing.T) {
	results, err := runFigure14(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Config.Operations != 100 {
			t.Errorf("ops override ignored: %d", r.Config.Operations)
		}
	}
}
