package schedd

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/faultinject"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestServer builds a daemon over the default environment and wraps
// it in an httptest server. The mutate hook adjusts the config before
// construction.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Runner: core.NewRunner(core.DefaultEnv(), 0)}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// call performs one request and returns status and body.
func call(t testing.TB, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("closing body: %v", err)
		}
	}()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, data
}

// checkGolden compares a response body against a committed fixture.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("writing golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\ngot:  %s\nwant: %s", name, got, want)
	}
}

func TestRecommendGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := call(t, ts, "POST", "/v1/recommend",
		`{"name":"micro-2k","ranks":8,"include_runtimes":true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	checkGolden(t, "recommend_micro2k.json", body)

	status, body = call(t, ts, "POST", "/v1/recommend", `{"name":"gtc+readonly","ranks":4}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	checkGolden(t, "recommend_gtc_readonly.json", body)
}

func TestRecommendInlineSpecMatchesCatalog(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var spec strings.Builder
	if err := workflow.WriteSpec(&spec, workloads.GTCReadOnly(4)); err != nil {
		t.Fatalf("WriteSpec: %v", err)
	}
	status, inline := call(t, ts, "POST", "/v1/recommend",
		fmt.Sprintf(`{"workflow":%s}`, spec.String()))
	if status != http.StatusOK {
		t.Fatalf("inline spec: status %d, body %s", status, inline)
	}
	status, named := call(t, ts, "POST", "/v1/recommend", `{"name":"gtc+readonly","ranks":4}`)
	if status != http.StatusOK {
		t.Fatalf("catalog: status %d, body %s", status, named)
	}
	if !bytes.Equal(inline, named) {
		t.Errorf("inline spec and catalog name disagree:\ninline: %s\nnamed:  %s", inline, named)
	}
}

func TestRecommendErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		want string
	}{
		{"malformed", `{`, "decoding request"},
		{"unknown field", `{"nmae":"micro-2k"}`, "decoding request"},
		{"unknown workload", `{"name":"hpl"}`, "unknown workload"},
		{"neither", `{}`, "needs a workload name or an inline workflow spec"},
		{"both", `{"name":"micro-2k","workflow":{"name":"x"}}`, "sets both name and workflow"},
		{"negative ranks", `{"name":"micro-2k","ranks":-4}`, "ranks must be positive"},
		{"bad spec", `{"workflow":{"name":"x","ranks":0}}`, "workflow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := call(t, ts, "POST", "/v1/recommend", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", status, body)
			}
			var e errorJSON
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not the uniform shape: %s", body)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)

	status, body := call(t, ts, "POST", "/v1/nodes", `{"count":2}`)
	if status != http.StatusOK {
		t.Fatalf("nodes: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_nodes.json", body)

	for i, job := range []string{
		`{"name":"gtc+readonly","ranks":8}`,
		`{"name":"miniamr+matrixmult","ranks":8}`,
		`{"name":"micro-2k","ranks":4,"arrival_seconds":5}`,
	} {
		status, body = call(t, ts, "POST", "/v1/jobs", job)
		if status != http.StatusOK {
			t.Fatalf("job %d: status %d, body %s", i, status, body)
		}
	}

	status, body = call(t, ts, "GET", "/v1/schedule", "")
	if status != http.StatusOK {
		t.Fatalf("schedule: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_schedule.json", body)

	status, body = call(t, ts, "POST", "/v1/advance", `{"to_seconds":100000}`)
	if status != http.StatusOK {
		t.Fatalf("advance: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_advance.json", body)

	status, body = call(t, ts, "GET", "/v1/state", "")
	if status != http.StatusOK {
		t.Fatalf("state: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_state.json", body)

	status, body = call(t, ts, "GET", "/v1/jobs/0", "")
	if status != http.StatusOK {
		t.Fatalf("job status: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_job0.json", body)

	var js jobStatusJSON
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatalf("job status decode: %v", err)
	}
	if js.Phase != "done" {
		t.Errorf("job 0 phase %q after advancing past everything, want done", js.Phase)
	}
}

func TestPlacementErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		want         string
	}{
		{"zero nodes", "POST", "/v1/nodes", `{"count":0}`, 400, "count must be in"},
		{"too many nodes", "POST", "/v1/nodes", `{"count":100000}`, 400, "count must be in"},
		{"oversized job", "POST", "/v1/jobs", `{"name":"micro-2k","ranks":999}`, 400, "ranks"},
		{"job status non-int", "GET", "/v1/jobs/zz", "", 400, "must be an integer"},
		{"job status missing", "GET", "/v1/jobs/7", "", 404, "no job 7"},
		{"advance backwards", "POST", "/v1/advance", `{"to_seconds":-1}`, 400, "backwards"},
		{"wrong method", "GET", "/v1/recommend", "", 405, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := call(t, ts, tc.method, tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d; body %s", status, tc.status, body)
			}
			if tc.want != "" && !strings.Contains(string(body), tc.want) {
				t.Errorf("body %q does not mention %q", body, tc.want)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := call(t, ts, "GET", "/healthz", "")
	if status != http.StatusOK || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz: status %d, body %q", status, body)
	}
}

// slowEnv returns the default environment with an artificial delay in
// stack construction, widening every simulation's execution window so
// concurrent identical requests reliably overlap in the runner.
func slowEnv(d time.Duration) core.Env {
	return core.Env{NewStack: func() stack.Instance {
		time.Sleep(d)
		return nova.Default()
	}}
}

// TestConcurrentRecommendCoalesce hammers one workflow from many
// clients at once (run under -race). All responses must be 200 with
// byte-identical bodies, and the shared runner must report in-flight
// joins: identical requests, in one batch's RunBatch over four workers
// or in concurrent batches, joined one execution instead of
// duplicating it.
func TestConcurrentRecommendCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.Runner = core.NewRunner(slowEnv(2*time.Millisecond), 4)
		// Admit every client at once; shedding is TestAdmissionShed's
		// subject, not this test's.
		cfg.MaxInflight = 64
	})

	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","ranks":6}`)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d, body %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	st := srv.Stats()
	if st.Inflight == 0 {
		t.Errorf("no in-flight joins recorded (hits %d, misses %d): concurrent identical requests never coalesced", st.Hits, st.Misses)
	}
	if st.Hits+st.Inflight == 0 {
		t.Errorf("every request executed fresh: cache sharing is broken (stats %+v)", st)
	}
}

// TestRecommendBatchEquivalence fires a concurrent mix of identical
// and distinct requests (catalog and inline forms, with and without
// include_runtimes) so they share batches, and checks every body is
// byte-identical to the same request answered alone.
func TestRecommendBatchEquivalence(t *testing.T) {
	var bodies []string
	for _, name := range []string{"micro-2k", "gtc+readonly"} {
		wf, _ := workloads.ByName(name, 4)
		var spec strings.Builder
		if err := workflow.WriteSpec(&spec, wf); err != nil {
			t.Fatalf("WriteSpec: %v", err)
		}
		for _, ref := range []string{fmt.Sprintf(`"name":%q,"ranks":4`, name), `"workflow":` + spec.String()} {
			bodies = append(bodies, "{"+ref+"}", "{"+ref+`,"include_runtimes":true}`)
		}
	}

	_, alone := newTestServer(t, nil)
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		status, got := call(t, alone, "POST", "/v1/recommend", body)
		if status != http.StatusOK {
			t.Fatalf("alone %s: status %d, body %s", body, status, got)
		}
		want[i] = got
	}

	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.Runner = core.NewRunner(slowEnv(time.Millisecond), 0)
		cfg.MaxInflight = 64
	})
	const copies = 3
	var wg sync.WaitGroup
	for c := 0; c < copies; c++ {
		for i, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, got := call(t, ts, "POST", "/v1/recommend", body)
				if status != http.StatusOK {
					t.Errorf("concurrent %s: status %d, body %s", body, status, got)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("concurrent %s differs from the lone answer:\n%s\nvs\n%s", body, got, want[i])
				}
			}()
		}
	}
	wg.Wait()
	if batches, batched := srv.met.batches.Load(), srv.met.batched.Load(); batched <= batches {
		t.Errorf("%d requests in %d batches: no batch held two requests", batched, batches)
	}
}

// TestRecommendBatchFailure runs the daemon over a stack that drops
// every append. Classification profiles without a channel and
// succeeds, so each batch's RunBatch fails and every request re-runs
// its own jobs: each must get a 500 carrying the integrity error of
// its own workflow, not the batch's first, and every admission slot
// must come back.
func TestRecommendBatchFailure(t *testing.T) {
	env := core.Env{Tag: "drop-appends", NewStack: func() stack.Instance {
		return faultinject.New(nova.Default(), faultinject.DropAppends, 1, 1)
	}}
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.Runner = core.NewRunner(env, 0)
		cfg.MaxInflight = 64
	})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		for _, name := range []string{"micro-2k", "gtc+readonly", "miniamr+readonly"} {
			wf, _ := workloads.ByName(name, 4)
			body := fmt.Sprintf(`{"name":%q,"ranks":4,"include_runtimes":%t}`, name, c%2 == 0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, got := call(t, ts, "POST", "/v1/recommend", body)
				if status != http.StatusInternalServerError || !strings.Contains(string(got), wf.Name+" under") ||
					!strings.Contains(string(got), "channel integrity") {
					t.Errorf("%s: status %d, body %s; want 500 with %s's integrity error", body, status, got, wf.Name)
				}
			}()
		}
	}
	wg.Wait()
	for i := 0; srv.gate.inflight() != 0; i++ {
		if i > 1000 {
			t.Fatalf("%d admission slots still held after every reply", srv.gate.inflight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShed saturates the single decision slot and checks the
// daemon sheds with 429 + Retry-After while saturated, then recovers.
func TestAdmissionShed(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxInflight = 1
		// Every stack build sleeps, so the cold request's simulations
		// pin the slot long enough for the second request to observe
		// saturation.
		cfg.Runner = core.NewRunner(slowEnv(100*time.Millisecond), 0)
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","ranks":4}`)
		if status != http.StatusOK {
			t.Errorf("pinned request: status %d, body %s", status, body)
		}
	}()

	// Wait until the first request holds the slot.
	for i := 0; srv.gate.inflight() == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/recommend", strings.NewReader(`{"name":"micro-2k","ranks":4}`))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading shed body: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Errorf("closing shed body: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	if !strings.Contains(string(body), "saturated") {
		t.Errorf("shed body %q does not explain the rejection", body)
	}

	// Introspection must stay available while the gate is shedding.
	if status, _ := call(t, ts, "GET", "/healthz", ""); status != http.StatusOK {
		t.Errorf("healthz unavailable during saturation: status %d", status)
	}
	if status, _ := call(t, ts, "GET", "/metrics", ""); status != http.StatusOK {
		t.Errorf("metrics unavailable during saturation: status %d", status)
	}

	<-done
	// The slot is free again: the same request now succeeds (and is a
	// cache hit).
	if status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","ranks":4}`); status != http.StatusOK {
		t.Fatalf("post-recovery request: status %d, body %s", status, body)
	}
	if shed := srv.met.shed.Load(); shed == 0 {
		t.Errorf("shed counter is zero after a 429")
	}
}

func TestMetricsShape(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Generate some traffic, including a repeat (cache hit) and an error.
	for i := 0; i < 2; i++ {
		if status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","ranks":4}`); status != http.StatusOK {
			t.Fatalf("recommend: status %d, body %s", status, body)
		}
	}
	if status, _ := call(t, ts, "POST", "/v1/recommend", `{"name":"bogus"}`); status != http.StatusBadRequest {
		t.Fatalf("expected 400 for bogus workload, got %d", status)
	}

	status, body := call(t, ts, "GET", "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var m metricsJSON
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics decode: %v\n%s", err, body)
	}
	var rec *endpointJSON
	for i := range m.Requests {
		if m.Requests[i].Endpoint == "recommend" {
			rec = &m.Requests[i]
		}
	}
	if rec == nil {
		t.Fatalf("metrics missing recommend endpoint: %s", body)
	}
	if rec.Requests != 3 || rec.Errors != 1 {
		t.Errorf("recommend counters %d/%d, want 3 requests 1 error", rec.Requests, rec.Errors)
	}
	if rec.Latency.Count != 3 || rec.Latency.MaxMs <= 0 {
		t.Errorf("recommend latency summary %+v", rec.Latency)
	}
	if m.Cache.Misses == 0 {
		t.Errorf("cache misses zero after cold requests: %+v", m.Cache)
	}
	if m.Cache.Hits == 0 {
		t.Errorf("cache hits zero after a repeated request: %+v", m.Cache)
	}
	if m.Cache.HitRate <= 0 || m.Cache.HitRate >= 1 {
		t.Errorf("hit rate %v out of (0,1)", m.Cache.HitRate)
	}
	if m.Admission.MaxInflight <= 0 {
		t.Errorf("admission capacity %d", m.Admission.MaxInflight)
	}
	if m.Batch.Batches == 0 || m.Batch.Requests < m.Batch.Batches {
		t.Errorf("batch counters %+v", m.Batch)
	}
}

// TestRequestIDsAndLogs checks the middleware stamps X-Request-Id and
// emits one structured log line per request.
func TestRequestIDsAndLogs(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.Logger = newBufLogger(&buf)
	})
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Errorf("closing body: %v", err)
	}
	id := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(id, "req-") {
		t.Errorf("X-Request-Id %q", id)
	}
	logged := buf.String()
	if !strings.Contains(logged, id) || !strings.Contains(logged, "/healthz") {
		t.Errorf("request log missing id or path: %q", logged)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a config without a runner")
	}
}

// TestHTTPServerTimeouts pins the slowloris guard: the server both
// front ends run must bound header reads and idle keep-alives.
func TestHTTPServerTimeouts(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	hs := srv.HTTPServer()
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be positive", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.Handler == nil {
		t.Fatal("HTTPServer has no handler")
	}
}

// BenchmarkRecommend measures one recommend round trip through the
// in-process HTTP stack. Cold starts each request on a fresh daemon, so
// it pays the profile and the four configuration runs; warm repeats a
// cached decision, so it pays serving alone, batch window included.
func BenchmarkRecommend(b *testing.B) {
	const body = `{"name":"gtc+readonly","ranks":4}`
	roundTrip := func(b *testing.B, ts *httptest.Server) {
		if code, data := call(b, ts, http.MethodPost, "/v1/recommend", body); code != http.StatusOK {
			b.Fatalf("status %d: %s", code, data)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv, err := New(Config{Runner: core.NewRunner(core.DefaultEnv(), 0)})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			b.StartTimer()
			roundTrip(b, ts)
			b.StopTimer()
			ts.Close()
			srv.Close()
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		_, ts := newTestServer(b, nil)
		roundTrip(b, ts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip(b, ts)
		}
	})
}
