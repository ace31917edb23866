// Command wfsched runs the online multi-node cluster scheduler over a
// job arrival trace and reports per-job queueing metrics (wait,
// turnaround, bounded slowdown) and per-node utilization.
//
// Usage:
//
//	wfsched                              # bundled 18-workload suite trace, pmem-aware, 2 nodes
//	wfsched -policy easy -config S-LocW  # EASY backfill under one fixed configuration
//	wfsched -jobs 8 -seed 3              # 8-job synthetic trace sampled from the suite
//	wfsched -trace trace.json -nodes 4   # a custom JSON trace (see internal/cluster.ReadTrace)
//	wfsched -format json                 # machine-readable report (byte-identical per seed)
//	wfsched -interference                # model cross-job PMEM contention on shared nodes
//	wfsched -interference -policy easy-i # ...and place jobs to avoid bandwidth collisions
//	wfsched -faults -mtbf 3600           # seeded random node failures, jobs retried with backoff
//	wfsched -faults -checkpoint 300      # ...with checkpoint-restart every 300 standalone-seconds
//	wfsched -fault-schedule outages.json # explicit outage schedule (see internal/cluster.ReadOutages)
//	wfsched -dump-trace trace.json       # write the generated trace for reuse
//
// Exit codes: 0 success, 1 runtime failure (simulation or output), 2
// usage error (bad flags or flag combinations, rejected before any
// simulation runs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pmemsched"
	"pmemsched/internal/cli"
	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/stack/nvstream"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tracePath := fs.String("trace", "", "JSON job trace (default: a synthetic trace, see -jobs)")
	dagPath := fs.String("dag", "", "DAG workflow JSON spec; the trace submits -jobs copies of it (conflicts with -trace, needs -jobs >= 1)")
	jobs := fs.Int("jobs", 0, "synthetic trace size; 0 = the bundled 18-workload suite trace (one of each)")
	interarrival := fs.Float64("interarrival", 60, "synthetic mean inter-arrival time in seconds (Poisson arrivals)")
	nodes := fs.Int("nodes", 2, "cluster size")
	policyName := fs.String("policy", "pmem-aware", "scheduling policy: fcfs, easy, pmem-aware, easy-i or pmem-aware-i")
	configName := fs.String("config", "S-LocW", "fixed site-wide configuration for fcfs/easy (S-LocW, S-LocR, P-LocW, P-LocR)")
	seed := fs.Int64("seed", 1, "synthetic trace seed (same seed = byte-identical trace and report)")
	parallel := fs.Int("parallel", 0, "run-engine worker pool size (0 = GOMAXPROCS)")
	format := fs.String("format", "text", "output format: text, csv or json")
	stackName := fs.String("stack", "nova", "storage stack: nova or nvstream")
	dumpTrace := fs.String("dump-trace", "", "also write the job trace as JSON to this path")
	interference := fs.Bool("interference", false, "model cross-job PMEM bandwidth contention on shared nodes (Optane budgets)")
	faults := fs.Bool("faults", false, "model node failures: random MTBF/MTTR outages seeded from -seed (see -mtbf, -mttr)")
	mtbf := fs.Float64("mtbf", 3600, "mean time between failures per node, seconds (with -faults)")
	mttr := fs.Float64("mttr", 120, "mean repair time per node, seconds (with -faults)")
	faultSchedule := fs.String("fault-schedule", "", "explicit JSON outage schedule; implies -faults and overrides -mtbf/-mttr")
	retries := fs.Int("retries", 0, "max attempts per job under faults; 0 = the default policy (4)")
	backoff := fs.Float64("backoff", -1, "base requeue backoff in seconds, doubling per kill; negative = default (10)")
	checkpoint := fs.Float64("checkpoint", 0, "checkpoint-restart interval in standalone-seconds; 0 = restart from scratch")
	tier := fs.String("tier", "", "memory-tier policy applied to every job: pmem-only, dram-first-spill, write-stage-drain or hot-promote")
	nodeDRAM := fs.Float64("node-dram", 0, "per-node DRAM capacity in GiB schedulable by tiered jobs (0 = DRAM unmodeled)")
	stream := fs.Bool("stream", false, "stream the trace through the engine (constant memory; -trace files must already be sorted by arrival)")
	summaryOnly := fs.Bool("summary-only", false, "aggregate on the fly and emit only the summary (constant memory; fleet-scale runs)")
	dedupSamples := fs.Bool("dedup-samples", false, "drop consecutive identical utilization samples from the series")
	incrementalReflow := fs.Bool("incremental-reflow", false, "socket-local incremental interference reflow (bounded per-event work; last-ulp fp drift vs the exact reflow)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		cli.Sayf(stderr, "wfsched: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	// Validate everything derivable from flags alone before any
	// simulation runs: a typo'd -format used to surface only after
	// minutes of simulated work.
	switch *format {
	case "text", "csv", "json":
	default:
		cli.Sayf(stderr, "wfsched: unknown format %q (want text, csv or json)\n", *format)
		return 2
	}
	if *dagPath != "" {
		if *tracePath != "" {
			cli.Sayln(stderr, "wfsched: -dag and -trace are mutually exclusive")
			return 2
		}
		if *jobs < 1 {
			cli.Sayf(stderr, "wfsched: -dag needs -jobs >= 1 (got %d)\n", *jobs)
			return 2
		}
	}
	var tierSpec workflow.TierSpec
	if *tier != "" {
		if *dagPath != "" {
			cli.Sayln(stderr, "wfsched: -tier conflicts with -dag (declare per-stage tiers in the DAG spec)")
			return 2
		}
		pol, err := workflow.ParseTierPolicy(*tier)
		if err != nil {
			cli.Sayln(stderr, "wfsched:", err)
			return 2
		}
		tierSpec = workflow.TierSpec{Policy: pol}
	}
	if *nodeDRAM < 0 {
		cli.Sayf(stderr, "wfsched: -node-dram must be non-negative, got %g\n", *nodeDRAM)
		return 2
	}
	env, err := envFor(*stackName)
	if err != nil {
		cli.Sayln(stderr, "wfsched:", err)
		return 2
	}
	fixed, err := core.ParseConfig(*configName)
	if err != nil {
		cli.Sayln(stderr, "wfsched:", err)
		return 2
	}
	policy, err := cluster.ParsePolicy(*policyName, fixed)
	if err != nil {
		cli.Sayln(stderr, "wfsched:", err)
		return 2
	}

	rt := core.NewRunner(env, *parallel)
	opt := cluster.Options{
		Nodes:     *nodes,
		Policy:    policy,
		Estimator: cluster.NewEstimator(rt),
		Fleet: cluster.FleetOptions{
			IncrementalReflow: *incrementalReflow,
			DedupSamples:      *dedupSamples,
			SummaryOnly:       *summaryOnly,
		},
	}
	opt.DRAMBytesPerNode = *nodeDRAM * 1024 * 1024 * 1024
	if *interference {
		if tierSpec.Enabled() {
			// Tiered jobs also contend for socket DRAM bandwidth.
			opt.Interference = cluster.TieredInterference()
		} else {
			opt.Interference = cluster.DefaultInterference()
		}
	}
	if err := faultOptions(&opt, *faults, *faultSchedule, *mtbf, *mttr, *seed, *retries, *backoff, *checkpoint); err != nil {
		cli.Sayln(stderr, "wfsched:", err)
		return 2
	}

	var metrics *cluster.Metrics
	if *stream {
		// Streaming keeps the whole trace out of memory, which is the
		// point — so there is no materialized trace to dump.
		if *dumpTrace != "" {
			cli.Sayln(stderr, "wfsched: -dump-trace needs a materialized trace; drop -stream")
			return 2
		}
		src, done, err := selectSource(*tracePath, *dagPath, *jobs, *interarrival, *seed)
		if err != nil {
			cli.Sayln(stderr, "wfsched:", err)
			return 2
		}
		if tierSpec.Enabled() {
			src = tieredSource{src: src, tier: tierSpec}
		}
		metrics, err = cluster.SimulateStream(src, opt)
		if cerr := done(); err == nil {
			err = cerr
		}
		if err != nil {
			cli.Sayln(stderr, "wfsched:", err)
			return 1
		}
	} else {
		tr, err := selectTrace(*tracePath, *dagPath, *jobs, *interarrival, *seed)
		if err != nil {
			cli.Sayln(stderr, "wfsched:", err)
			return 2
		}
		if tierSpec.Enabled() {
			for i := range tr.Jobs {
				tr.Jobs[i].Workflow.Tier = tierSpec
			}
		}
		if *dumpTrace != "" {
			if err := dumpTraceFile(*dumpTrace, tr); err != nil {
				cli.Sayln(stderr, "wfsched:", err)
				return 1
			}
		}
		metrics, err = cluster.Simulate(tr, opt)
		if err != nil {
			cli.Sayln(stderr, "wfsched:", err)
			return 1
		}
	}

	switch *format {
	case "text":
		err = metrics.Render(stdout)
	case "csv":
		err = metrics.WriteCSV(stdout)
	case "json":
		err = metrics.WriteJSON(stdout)
	}
	if err != nil {
		cli.Sayln(stderr, "wfsched:", err)
		return 1
	}
	return 0
}

// tieredSource applies the site-wide -tier policy to every streamed
// job's workflow.
type tieredSource struct {
	src  cluster.TraceSource
	tier workflow.TierSpec
}

func (t tieredSource) Next() (cluster.Job, bool, error) {
	j, ok, err := t.src.Next()
	if ok {
		j.Workflow.Tier = t.tier
	}
	return j, ok, err
}

// dumpTraceFile writes the materialized trace as JSON.
func dumpTraceFile(path string, tr cluster.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cluster.WriteTrace(f, tr); err != nil {
		//pmemlint:ignore errflow the write error is being reported; a close error on top cannot change the verdict
		f.Close()
		return err
	}
	return f.Close()
}

// loadDAG reads a DAG workflow spec file.
func loadDAG(path string) (workflow.DAGSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return workflow.DAGSpec{}, err
	}
	//pmemlint:ignore errflow read-only file; decode errors are checked, a close error cannot lose data
	defer f.Close()
	return workflow.ReadDAGSpec(f)
}

// selectTrace resolves the job trace the flags ask for: a JSON file, a
// DAG spec repeated -jobs times, a synthetic trace of the given size,
// or (jobs == 0) the bundled suite trace. A negative -jobs is an
// explicit error — it used to fall through to the suite-trace default
// silently.
func selectTrace(tracePath, dagPath string, jobs int, interarrival float64, seed int64) (cluster.Trace, error) {
	switch {
	case dagPath != "":
		d, err := loadDAG(dagPath)
		if err != nil {
			return cluster.Trace{}, err
		}
		return cluster.SyntheticDAG(d, cluster.SyntheticConfig{
			Jobs:                    jobs,
			MeanInterarrivalSeconds: interarrival,
			Seed:                    seed,
		})
	case tracePath != "":
		f, err := os.Open(tracePath)
		if err != nil {
			return cluster.Trace{}, err
		}
		//pmemlint:ignore errflow read-only file; decode errors are checked, a close error cannot lose data
		defer f.Close()
		return cluster.ReadTrace(f)
	case jobs < 0:
		return cluster.Trace{}, fmt.Errorf("-jobs must be non-negative (got %d); 0 selects the bundled suite trace", jobs)
	case jobs > 0:
		return cluster.Synthetic(workloads.Suite(), cluster.SyntheticConfig{
			Jobs:                    jobs,
			MeanInterarrivalSeconds: interarrival,
			Seed:                    seed,
		})
	default:
		return cluster.SuiteTrace(seed, interarrival)
	}
}

// selectSource is selectTrace for -stream: the same flag semantics,
// but the trace flows through the engine one arrival at a time — a
// trace file is decoded incrementally (it must already be sorted by
// arrival, which WriteTrace/-dump-trace files are) and a synthetic
// trace is drawn job by job. The returned func releases the source's
// file handle, if any.
func selectSource(tracePath, dagPath string, jobs int, interarrival float64, seed int64) (cluster.TraceSource, func() error, error) {
	noop := func() error { return nil }
	switch {
	case dagPath != "":
		// A DAG trace is -jobs copies of one spec — always small, so
		// materializing it keeps one synthesis path.
		tr, err := selectTrace("", dagPath, jobs, interarrival, seed)
		if err != nil {
			return nil, noop, err
		}
		return tr.Source(), noop, nil
	case tracePath != "":
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, noop, err
		}
		return cluster.StreamTrace(f), f.Close, nil
	case jobs < 0:
		return nil, noop, fmt.Errorf("-jobs must be non-negative (got %d); 0 selects the bundled suite trace", jobs)
	case jobs > 0:
		src, err := cluster.SyntheticSource(workloads.Suite(), cluster.SyntheticConfig{
			Jobs:                    jobs,
			MeanInterarrivalSeconds: interarrival,
			Seed:                    seed,
		})
		return src, noop, err
	default:
		tr, err := cluster.SuiteTrace(seed, interarrival)
		if err != nil {
			return nil, noop, err
		}
		return tr.Source(), noop, nil
	}
}

// faultOptions fills opt.Faults and opt.Retry from the fault flag set.
// An explicit schedule implies -faults; the random model reuses the
// trace seed so one -seed pins the whole run.
func faultOptions(opt *cluster.Options, faults bool, schedule string, mtbf, mttr float64, seed int64, retries int, backoff, checkpoint float64) error {
	if schedule != "" {
		f, err := os.Open(schedule)
		if err != nil {
			return err
		}
		//pmemlint:ignore errflow read-only file; decode errors are checked, a close error cannot lose data
		defer f.Close()
		outages, err := cluster.ReadOutages(f)
		if err != nil {
			return err
		}
		opt.Faults = cluster.ScheduledFaults(outages...)
	} else if faults {
		opt.Faults = cluster.RandomFaults(mtbf, mttr, seed)
	} else {
		if retries != 0 || backoff >= 0 || checkpoint != 0 {
			return fmt.Errorf("-retries/-backoff/-checkpoint need -faults or -fault-schedule")
		}
		return nil
	}
	retry := cluster.DefaultRetry()
	if retries != 0 {
		retry.MaxAttempts = retries
	}
	if backoff >= 0 {
		retry.BackoffSeconds = backoff
	}
	retry.CheckpointIntervalSeconds = checkpoint
	opt.Retry = retry
	return nil
}

func envFor(name string) (core.Env, error) {
	env := pmemsched.DefaultEnv()
	switch name {
	case "nova":
		env.NewStack = func() stack.Instance { return nova.Default() }
	case "nvstream":
		env.NewStack = func() stack.Instance { return nvstream.Default() }
	default:
		return env, fmt.Errorf("unknown stack %q (want nova or nvstream)", name)
	}
	return env, nil
}
