// fleetbench measures the cluster engine's scheduling cost at fleet
// scale and writes the result as a BENCH_fleet.json document — the
// repo's performance trajectory for the fleet-scale engine work.
//
// The workload is the bundled 18-workflow suite drawn as a seeded
// synthetic Poisson stream (cluster.SyntheticSource), run through
// cluster.SimulateStream in summary-only mode so a million-job trace
// needs constant memory. The engine's exactness against brute-force
// node scans is pinned by the cluster package's tests, not here.
//
// With -baseline the run gates against a committed BENCH_fleet.json:
// it fails (exit 1) when the fresh per-event cost regresses more than
// -tolerance times the baseline's, which is what CI's bench smoke job
// runs on every push.
//
// Wall-clock timing lives here and not in internal/cluster because the
// simulator proper is deterministic by contract (pmemlint bans
// time.Now there); the engine exports event and pass counters and this
// command divides them by wall time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"pmemsched"
	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/stack/nvstream"
	"pmemsched/internal/workloads"
)

// benchDoc is the BENCH_fleet.json schema, version
// "pmemsched/bench-fleet/v1". Fields under "indexed" are
// machine-dependent wall-clock measurements; everything else is
// deterministic. Future PRs append runs by regenerating the file, and
// the CI gate reads indexed.ns_per_event.
type benchDoc struct {
	Schema string      `json:"schema"`
	Config benchConfig `json:"config"`
	// Indexed is the engine run (bucketed free-capacity index,
	// copy-on-write snapshots, streaming trace, summary-only metrics).
	Indexed benchRun `json:"indexed"`
	// Summary is the simulation outcome.
	Summary cluster.Summary `json:"summary"`
}

type benchConfig struct {
	Nodes                   int     `json:"nodes"`
	Jobs                    int     `json:"jobs"`
	MeanInterarrivalSeconds float64 `json:"mean_interarrival_seconds"`
	Seed                    int64   `json:"seed"`
	Policy                  string  `json:"policy"`
	CoresPerSocket          int     `json:"cores_per_socket"`
	Stack                   string  `json:"stack"`
}

type benchRun struct {
	WallSeconds float64 `json:"wall_seconds"`
	Events      int     `json:"events"`
	Passes      int     `json:"passes"`
	NsPerEvent  float64 `json:"ns_per_event"`
}

func main() {
	nodes := flag.Int("nodes", 1000, "cluster size")
	jobs := flag.Int("jobs", 1000000, "synthetic trace length")
	interarrival := flag.Float64("interarrival", 0.027, "mean inter-arrival in seconds (Poisson; 0.027 loads the default 1k-node cluster to ~60%)")
	seed := flag.Int64("seed", 1, "trace seed")
	policyName := flag.String("policy", "easy", "scheduling policy: fcfs, easy, pmem-aware, easy-i or pmem-aware-i")
	configName := flag.String("config", "S-LocW", "fixed site-wide configuration for fcfs/easy")
	stackName := flag.String("stack", "nova", "storage stack: nova or nvstream")
	parallel := flag.Int("parallel", 0, "run-engine worker pool size (0 = GOMAXPROCS)")
	out := flag.String("out", "BENCH_fleet.json", "output path")
	baseline := flag.String("baseline", "", "committed BENCH_fleet.json to gate against (CI)")
	tolerance := flag.Float64("tolerance", 2.0, "max allowed indexed ns/event regression factor vs the baseline")
	flag.Parse()

	env := pmemsched.DefaultEnv()
	switch *stackName {
	case "nova":
		env.NewStack = func() stack.Instance { return nova.Default() }
	case "nvstream":
		env.NewStack = func() stack.Instance { return nvstream.Default() }
	default:
		fatal(fmt.Errorf("unknown stack %q (want nova or nvstream)", *stackName))
	}
	fixed, err := core.ParseConfig(*configName)
	if err != nil {
		fatal(err)
	}
	policy, err := cluster.ParsePolicy(*policyName, fixed)
	if err != nil {
		fatal(err)
	}
	opt := cluster.Options{
		Nodes:     *nodes,
		Policy:    policy,
		Estimator: cluster.NewEstimator(core.NewRunner(env, *parallel)),
		Fleet:     cluster.FleetOptions{SummaryOnly: true, DedupSamples: true},
	}
	cfg := cluster.SyntheticConfig{Jobs: *jobs, MeanInterarrivalSeconds: *interarrival, Seed: *seed}

	indexed, sum, err := run(opt, cfg)
	if err != nil {
		fatal(err)
	}
	doc := benchDoc{
		Schema: "pmemsched/bench-fleet/v1",
		Config: benchConfig{
			Nodes: *nodes, Jobs: *jobs, MeanInterarrivalSeconds: *interarrival,
			Seed: *seed, Policy: policy.Name(), CoresPerSocket: sum.CoresPerSocket, Stack: *stackName,
		},
		Indexed: indexed,
		Summary: sum,
	}
	fmt.Fprintf(os.Stderr, "indexed: %d jobs on %d nodes in %.2fs (%.0f ns/event, %d events, %d passes)\n",
		*jobs, *nodes, indexed.WallSeconds, indexed.NsPerEvent, indexed.Events, indexed.Passes)

	if *baseline != "" {
		if err := gate(*baseline, indexed, *tolerance); err != nil {
			fatal(err)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// run executes one simulation of the seeded stream and times it.
func run(opt cluster.Options, cfg cluster.SyntheticConfig) (benchRun, cluster.Summary, error) {
	src, err := cluster.SyntheticSource(workloads.Suite(), cfg)
	if err != nil {
		return benchRun{}, cluster.Summary{}, err
	}
	start := time.Now()
	m, err := cluster.SimulateStream(src, opt)
	if err != nil {
		return benchRun{}, cluster.Summary{}, err
	}
	wall := time.Since(start)
	r := benchRun{
		WallSeconds: wall.Seconds(),
		Events:      m.Events,
		Passes:      m.Passes,
	}
	if m.Events > 0 {
		r.NsPerEvent = float64(wall.Nanoseconds()) / float64(m.Events)
	}
	return r, m.Summary(), nil
}

// gate compares the fresh indexed per-event cost against a committed
// baseline and fails on a regression beyond the tolerance factor.
func gate(path string, fresh benchRun, tolerance float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if base.Indexed.NsPerEvent <= 0 {
		return fmt.Errorf("baseline %s has no indexed ns/event measurement", path)
	}
	limit := base.Indexed.NsPerEvent * tolerance
	if fresh.NsPerEvent > limit {
		return fmt.Errorf("per-event scheduling cost regressed: %.0f ns/event vs baseline %.0f (limit %.0fx = %.0f)",
			fresh.NsPerEvent, base.Indexed.NsPerEvent, tolerance, limit)
	}
	fmt.Fprintf(os.Stderr, "gate:    %.0f ns/event within %.1fx of baseline %.0f\n",
		fresh.NsPerEvent, tolerance, base.Indexed.NsPerEvent)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetbench:", err)
	os.Exit(1)
}
