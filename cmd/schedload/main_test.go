package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional args", []string{"go"}, "unexpected arguments"},
		{"zero clients", []string{"-clients", "0"}, "-clients must be"},
		{"zero duration", []string{"-duration", "0s"}, "-duration > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestSelfHostedRun drives a miniature self-hosted bench end to end
// and sanity-checks the written document.
func TestSelfHostedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-clients", "2", "-duration", "200ms", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading bench doc: %v", err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("decoding bench doc: %v\n%s", err, data)
	}
	if doc.Schema != "pmemsched/bench-schedd/v1" {
		t.Errorf("schema %q", doc.Schema)
	}
	if doc.Env.GoVersion == "" || doc.Env.GOMAXPROCS <= 0 || doc.Env.CPUModel == "" || doc.Env.Commit == "" {
		t.Errorf("incomplete environment stamp: %+v", doc.Env)
	}
	if doc.Warm.Requests == 0 || doc.Warm.ThroughputRPS <= 0 {
		t.Errorf("empty timed phase: %+v", doc.Warm)
	}
	if doc.Warm.Errors != 0 {
		t.Errorf("%d errors during the timed phase", doc.Warm.Errors)
	}
	if doc.Warm.LatencyMs.P99 < doc.Warm.LatencyMs.P50 {
		t.Errorf("p99 %.3f below p50 %.3f", doc.Warm.LatencyMs.P99, doc.Warm.LatencyMs.P50)
	}
	if doc.Daemon.Cache.HitRate <= 0 {
		t.Errorf("warm phase reported hit rate %v", doc.Daemon.Cache.HitRate)
	}
	if !strings.Contains(stdout.String(), "req/s") {
		t.Errorf("summary line missing from stdout: %q", stdout.String())
	}
}

// TestMinRPSGate checks the throughput gate actually gates.
func TestMinRPSGate(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// No machine serves 10^12 req/s; the gate must trip.
	code := run([]string{"-clients", "2", "-duration", "100ms", "-min-rps", "1e12"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "below the -min-rps") {
		t.Errorf("stderr %q does not explain the gate", stderr.String())
	}
}
