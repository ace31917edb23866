// Command perfbench is the repository's benchmark. It runs one named
// workload, checks the program's outputs, and prints one JSON object
// as the last line of standard output:
//
//	{"correct": true, "attempted": 123, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured
// untraced; with -trace 1 a separate traced run records spans around
// the calls into each layer and reports the per-layer metrics. Every
// name, unit and workload is listed in BENCHMARK.json at the
// repository root; layers.json next to this module maps each per-layer
// metric to the end-to-end metric it should move.
//
// Run it from the repository root through the wrapper, which builds
// the command into .bench_build first:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
//
// The workloads:
//
//	paper-suite   regenerate all 22 experiments on a fresh core.Runner
//	fleet         a seeded synthetic stream through cluster.SimulateStream
//	schedd-mixed  2 closed-loop HTTP clients against an in-process daemon
//
// The seed drives the fleet stream and the daemon clients' request
// order and cold inline specs; paper-suite has no random input. The
// default seed is 1. Seed 73 is held out: it was not used while the
// benchmark was tuned, so a claimed gain must also hold on it.
//
// Every run writes its result, with an environment stamp, under -out;
// a traced run also writes its spans there. The exit status is 0 when
// every output check passed, 1 when one failed or the run broke, and 2
// on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pmemsched/internal/cli"
	"pmemsched/internal/core"
)

// bench is one set-up instance of a workload, measured in rounds.
type bench interface {
	// round runs one fixed unit of the workload, checking its outputs;
	// tr is nil in untraced runs. It returns the round's wall time.
	round(tr *tracer) (time.Duration, error)
	// endToEnd reports the workload's end-to-end metrics over the
	// rounds run so far (set-up time and memory are added by measure).
	endToEnd() map[string]metric
	// layers adds the per-layer metrics observed in traced rounds.
	layers(m map[string]metric)
	// stats returns the run engine's cache counters.
	stats() (core.RunnerStats, error)
	close()
}

// workload names a benchmark workload and builds its instances.
type workload struct {
	name  string
	setup func(o options, t *tally) (bench, error)
}

var allWorkloads = []workload{
	{"paper-suite", setupPaperSuite},
	{"fleet", setupFleet},
	{"schedd-mixed", setupSchedd},
}

// sizes fixes how much work a run does. fullSizes is what the
// benchmark measures; the tests use quickSizes.
type sizes struct {
	// experiments lists the paper-suite experiment IDs; nil runs all.
	experiments []string
	// Fleet stream shape.
	fleetNodes        int
	fleetJobs         int
	fleetInterarrival float64
	// scheddRequests is the requests each daemon client sends per round.
	scheddRequests int
	// setups is how many times measure sets a workload up; set-up time
	// is their median.
	setups int
	// minRounds is the fewest rounds a measurement runs.
	minRounds int
}

var fullSizes = sizes{
	fleetNodes:        200,
	fleetJobs:         40000,
	fleetInterarrival: 0.15,
	scheddRequests:    300,
	setups:            3,
	minRounds:         3,
}

var quickSizes = sizes{
	experiments:       []string{"fig1", "tab1", "fig4", "online"},
	fleetNodes:        8,
	fleetJobs:         400,
	fleetInterarrival: 3.75,
	scheddRequests:    60,
	setups:            1,
	minRounds:         2,
}

// options is one run's configuration.
type options struct {
	seed    int64
	seconds time.Duration
	sizes   sizes
}

// Each workload puts at most nproc (2) threads of load on the machine:
// workers is the run engine's pool size and clients the daemon's
// connection count.
const (
	workers = 2
	clients = 2
)

// measure sets the workload up sizes.setups times, keeping the last
// instance, then runs rounds until the time is spent and reports the
// end-to-end metrics.
func measure(w workload, o options, t *tally) (map[string]metric, error) {
	var b bench
	var setups []float64
	for i := 0; i < o.sizes.setups; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = w.setup(o, t); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	start := time.Now()
	var walls []string
	for n := 0; ; n++ {
		d, err := b.round(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		walls = append(walls, fmt.Sprintf("%.3f", d.Seconds()))
		if n+1 >= o.sizes.minRounds && time.Since(start)+d > o.seconds {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-ups %.3g s, rounds %s s\n", w.name, setups, strings.Join(walls, " "))
	m := b.endToEnd()
	m["setup_s"] = metric{median(setups), "s"}
	m["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
	return m, nil
}

// traceRun is the separate traced run. It probes the device curves
// and the kernel directly, then runs one traced round of every
// workload, so each layer is covered whichever workload is named. The
// named workload also runs one untraced round on its own instance; the
// difference is the tracing overhead. The core.* counters are the
// named workload's.
func traceRun(w workload, o options, t *tally, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	probePMEM(m, tr)
	if err := probeKernel(m, tr, t); err != nil {
		return nil, err
	}
	var plain, traced time.Duration
	for _, x := range allWorkloads {
		if x.name == w.name {
			d, b, err := oneRound(x, o, t, nil)
			if err != nil {
				return nil, err
			}
			b.close()
			plain = d
		}
		d, b, err := oneRound(x, o, t, tr)
		if err != nil {
			return nil, err
		}
		b.layers(m)
		var st core.RunnerStats
		if x.name == w.name {
			traced = d
			st, err = b.stats()
		}
		b.close()
		if err != nil {
			return nil, err
		}
		if x.name == w.name {
			m["core.hits"] = metric{float64(st.Hits), "count"}
			m["core.misses"] = metric{float64(st.Misses), "count"}
			m["core.inflight_joins"] = metric{float64(st.Inflight), "count"}
			m["core.entries"] = metric{float64(st.Entries), "count"}
			m["core.hit_rate"] = metric{st.HitRate(), "ratio"}
		}
	}
	m["trace.overhead_pct"] = metric{100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds(), "%"}
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	return m, nil
}

// oneRound sets a workload up and runs one round on it; the caller
// closes the returned instance.
func oneRound(w workload, o options, t *tally, tr *tracer) (time.Duration, bench, error) {
	b, err := w.setup(o, t)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	d, err := b.round(tr)
	if err != nil {
		b.close()
		return 0, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return d, b, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp records the machine and toolchain behind a result.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func stamp(commit string) envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitCommit:  commit,
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is the file each run leaves under -out: the result with its
// environment stamp and configuration.
type record struct {
	Env      envStamp `json:"env"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Result   result   `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-suite, fleet or schedd-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement length in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-results"), "directory for result records and span files")
	commit := fs.String("commit", "unknown", "git commit recorded in the environment stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w workload
	for _, x := range allWorkloads {
		if x.name == *name {
			w = x
		}
	}
	if w.setup == nil || fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		cli.Sayln(stderr, "usage: perfbench --workload paper-suite|fleet|schedd-mixed [--seed n] [--seconds n] [--trace 0|1]")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		cli.Sayln(stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, sizes: fullSizes}
	t := &tally{}
	var m map[string]metric
	var err error
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traceFlag)
	if *traceFlag == 1 {
		tr := newTracer()
		if m, err = traceRun(w, o, t, tr); err == nil {
			err = tr.write(filepath.Join(*out, base+".spans.jsonl.gz"))
		}
	} else {
		m, err = measure(w, o, t)
	}
	if err != nil {
		cli.Sayln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: m}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec := record{Env: stamp(*commit), Workload: w.name, Seed: *seed, Seconds: o.seconds.Seconds(), Trace: *traceFlag == 1, Result: res}
	if err := writeJSON(filepath.Join(*out, base+".json"), rec); err != nil {
		cli.Sayln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		cli.Sayln(stderr, "perfbench:", err)
		return 1
	}
	cli.Sayf(stderr, "perfbench: %s seed %d: %d operations, %d failed; %s %s/%s GOMAXPROCS=%d\n",
		w.name, *seed, res.Attempted, res.Failed, rec.Env.GoVersion, rec.Env.GOOS, rec.Env.GOARCH, rec.Env.GOMAXPROCS)
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// writeJSON writes v as an indented JSON document.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
