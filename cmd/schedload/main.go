// schedload is the load generator for wfschedd: it hammers the
// recommend endpoint from many concurrent clients and writes the
// measured serving capacity as a BENCH_schedd.json document — the
// repo's performance trajectory for the scheduler-as-a-service work.
//
// By default it self-hosts: it builds an in-process daemon on a
// loopback port and drives it over real HTTP, so one command measures
// the full serving path (routing, admission, batching, JSON) without
// needing a separately launched server. Point -addr at a running
// wfschedd to load-test that instead.
//
// The run has two phases. A warmup issues every distinct request once,
// filling the decision cache; the timed phase then measures the
// warm-cache regime — the daemon's steady state, where every request
// is a cache hit and throughput is bounded by serving overhead, not
// simulation. The report carries client-side latency percentiles and
// the daemon's own /metrics counters (cache hit rate, batching shape,
// shed count).
//
// Usage:
//
//	schedload -quick                      # small run, for CI
//	schedload -clients 64 -duration 10s   # heavier local run
//	schedload -addr 127.0.0.1:8080        # against an external daemon
//	schedload -min-rps 5000               # gate: exit 1 below this throughput
//
// Wall-clock timing lives here and not in internal/schedd's tests
// because throughput is machine-dependent; the committed
// BENCH_schedd.json records one machine's trajectory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"pmemsched/internal/cli"
	"pmemsched/internal/core"
	"pmemsched/internal/schedd"
	"pmemsched/internal/workloads"
)

// benchDoc is the BENCH_schedd.json schema, version
// "pmemsched/bench-schedd/v1". The warm section is machine-dependent
// wall-clock measurement, so env records the machine and toolchain;
// the daemon section echoes /metrics counters at the end of the run.
type benchDoc struct {
	Schema string      `json:"schema"`
	Env    cli.Env     `json:"env"`
	Config benchConfig `json:"config"`
	// Warm is the timed warm-cache phase: every request a repeat of a
	// warmed decision.
	Warm benchPhase `json:"warm"`
	// Daemon is the server's own view, read from /metrics after the
	// timed phase.
	Daemon daemonStats `json:"daemon"`
}

type benchConfig struct {
	Clients          int     `json:"clients"`
	DurationSeconds  float64 `json:"duration_seconds"`
	DistinctRequests int     `json:"distinct_requests"`
	Workers          int     `json:"workers"`
	SelfHosted       bool    `json:"self_hosted"`
}

type benchPhase struct {
	Requests      int         `json:"requests"`
	Errors        int         `json:"errors"`
	WallSeconds   float64     `json:"wall_seconds"`
	ThroughputRPS float64     `json:"throughput_rps"`
	LatencyMs     latencyDist `json:"latency_ms"`
}

type latencyDist struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// daemonStats is the slice of wfschedd's /metrics the bench records.
// Field names match the daemon's wire shape so the decode is direct.
type daemonStats struct {
	Cache struct {
		Hits          uint64  `json:"hits"`
		Misses        uint64  `json:"misses"`
		InflightJoins uint64  `json:"inflight_joins"`
		Entries       uint64  `json:"entries"`
		HitRate       float64 `json:"hit_rate"`
	} `json:"cache"`
	Batch struct {
		Batches  uint64  `json:"batches"`
		Requests uint64  `json:"requests"`
		MeanSize float64 `json:"mean_size"`
	} `json:"batch"`
	Admission struct {
		MaxInflight int    `json:"max_inflight"`
		Shed        uint64 `json:"shed"`
	} `json:"admission"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "daemon address (host:port); empty self-hosts an in-process daemon")
	clients := fs.Int("clients", 32, "concurrent client goroutines")
	duration := fs.Duration("duration", 5*time.Second, "timed phase length")
	workers := fs.Int("workers", 0, "self-hosted daemon's worker pool size (0 = GOMAXPROCS)")
	quick := fs.Bool("quick", false, "small run for CI: 16 clients, 1s")
	out := fs.String("out", "", "write the bench document to this path (default: stdout)")
	minRPS := fs.Float64("min-rps", 0, "fail (exit 1) when warm throughput is below this")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		cli.Sayf(stderr, "schedload: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *quick {
		*clients = 16
		*duration = time.Second
	}
	if *clients < 1 || *duration <= 0 {
		cli.Sayln(stderr, "schedload: -clients must be >= 1 and -duration > 0")
		return 2
	}

	target := *addr
	var shutdown func() error
	if target == "" {
		var err error
		target, shutdown, err = selfHost(*workers, *clients)
		if err != nil {
			cli.Sayln(stderr, "schedload:", err)
			return 1
		}
		defer func() {
			if err := shutdown(); err != nil {
				cli.Sayln(stderr, "schedload: daemon shutdown:", err)
			}
		}()
	}
	base := "http://" + target

	// One distinct request per catalog workload and rank point: enough
	// variety to exercise dedup and cache lookup, small enough that the
	// warm phase is all hits.
	var bodies []string
	for _, name := range workloads.Names() {
		for _, ranks := range []int{4, 16} {
			bodies = append(bodies, fmt.Sprintf(`{"name":%q,"ranks":%d}`, name, ranks))
		}
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	// Warmup: every distinct decision once, serially, so the timed
	// phase measures the warm-cache serving path.
	for _, body := range bodies {
		if err := post(client, base+"/v1/recommend", body); err != nil {
			cli.Sayln(stderr, "schedload: warmup:", err)
			return 1
		}
	}

	phase, err := hammer(client, base+"/v1/recommend", bodies, *clients, *duration)
	if err != nil {
		cli.Sayln(stderr, "schedload:", err)
		return 1
	}

	var daemon daemonStats
	if err := getJSON(client, base+"/metrics", &daemon); err != nil {
		cli.Sayln(stderr, "schedload: reading /metrics:", err)
		return 1
	}

	doc := benchDoc{
		Schema: "pmemsched/bench-schedd/v1",
		Env:    cli.Stamp(),
		Config: benchConfig{
			Clients:          *clients,
			DurationSeconds:  duration.Seconds(),
			DistinctRequests: len(bodies),
			Workers:          *workers,
			SelfHosted:       *addr == "",
		},
		Warm:   phase,
		Daemon: daemon,
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		cli.Sayln(stderr, "schedload:", err)
		return 1
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			cli.Sayln(stderr, "schedload:", err)
			return 1
		}
		cli.Sayf(stdout, "schedload: %d req in %.2fs = %.0f req/s (p99 %.2fms, hit rate %.1f%%) -> %s\n",
			phase.Requests, phase.WallSeconds, phase.ThroughputRPS,
			phase.LatencyMs.P99, daemon.Cache.HitRate*100, *out)
	} else {
		if _, err := stdout.Write(data); err != nil {
			cli.Sayln(stderr, "schedload:", err)
			return 1
		}
	}

	if phase.Errors > 0 {
		cli.Sayf(stderr, "schedload: %d requests failed during the timed phase\n", phase.Errors)
		return 1
	}
	if *minRPS > 0 && phase.ThroughputRPS < *minRPS {
		cli.Sayf(stderr, "schedload: throughput %.0f req/s below the -min-rps %.0f gate\n",
			phase.ThroughputRPS, *minRPS)
		return 1
	}
	return 0
}

// selfHost builds an in-process daemon on a loopback port and returns
// its address and a shutdown func. The admission gate is sized to the
// client count — the bench measures serving capacity, not the gate
// (shedding under an undersized gate is TestAdmissionShed territory);
// an operator sizes a real deployment's gate with wfschedd
// -max-inflight the same way.
func selfHost(workers, clients int) (string, func() error, error) {
	srv, err := schedd.New(schedd.Config{
		Runner:      core.NewRunner(core.DefaultEnv(), workers),
		MaxInflight: 2 * clients,
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	httpSrv := srv.HTTPServer()
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(ctx)
		srv.Close()
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	return ln.Addr().String(), shutdown, nil
}

// hammer runs the timed phase: clients goroutines looping over the
// request corpus until the deadline, each recording its own latencies.
func hammer(client *http.Client, url string, bodies []string, clients int, d time.Duration) (benchPhase, error) {
	type clientResult struct {
		latencies []float64 // milliseconds
		errs      int
	}
	results := make([]clientResult, clients)
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for i := 0; time.Now().Before(deadline); i++ {
				body := bodies[(c+i)%len(bodies)]
				t0 := time.Now()
				err := post(client, url, body)
				r.latencies = append(r.latencies, float64(time.Since(t0).Nanoseconds())/1e6)
				if err != nil {
					r.errs++
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	var all []float64
	errs := 0
	for _, r := range results {
		all = append(all, r.latencies...)
		errs += r.errs
	}
	if len(all) == 0 {
		return benchPhase{}, fmt.Errorf("timed phase issued no requests")
	}
	sort.Float64s(all)
	sum := 0.0
	for _, v := range all {
		sum += v
	}
	phase := benchPhase{
		Requests:      len(all),
		Errors:        errs,
		WallSeconds:   wall,
		ThroughputRPS: float64(len(all)) / wall,
		LatencyMs: latencyDist{
			Mean: sum / float64(len(all)),
			P50:  quantile(all, 0.50),
			P90:  quantile(all, 0.90),
			P99:  quantile(all, 0.99),
			Max:  all[len(all)-1],
		},
	}
	return phase, nil
}

// quantile reads the q-quantile from a sorted slice (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// post issues one JSON request and drains the response; any non-200
// status is an error.
func post(client *http.Client, url, body string) error {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	return nil
}

// getJSON fetches and decodes one JSON document.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return err
}
