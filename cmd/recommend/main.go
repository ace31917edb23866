// Command recommend classifies a workflow (standalone profiling runs
// on the simulated testbed, exactly the paper's §IV-A measurement) and
// applies the Table II rules, optionally verifying the choice against
// the exhaustive oracle.
//
// Usage:
//
//	recommend -workflow miniamr+matrixmult -ranks 8
//	recommend -workflow gtc+readonly -ranks 24 -verify
//	recommend -spec custom.json -verify
//	recommend -suite -verify       # the full 18-workload Table II check
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags
// or flag combinations, rejected before any simulation runs).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"pmemsched"
	"pmemsched/internal/cli"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nvstream"
	"pmemsched/internal/units"
	"pmemsched/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workflow", "", "workflow name (as in wfrun -list)")
	specPath := fs.String("spec", "", "JSON workflow spec file (alternative to -workflow)")
	dagPath := fs.String("dag", "", "DAG workflow JSON spec file: tune per-stage configurations instead of applying Table II")
	ranks := fs.Int("ranks", 16, "ranks per component")
	verify := fs.Bool("verify", false, "run the oracle and report regret")
	suite := fs.Bool("suite", false, "run the whole 18-workload suite")
	parallel := fs.Int("parallel", 0, "run-engine worker pool size (0 = GOMAXPROCS)")
	tier := fs.String("tier", "", "memory-tier policy: pmem-only, dram-first-spill, write-stage-drain, hot-promote, or auto (search all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		cli.Sayf(stderr, "recommend: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	// The four selection modes are mutually exclusive; catch every
	// conflicting combination before touching the engine.
	switch {
	case *dagPath != "" && (*suite || *name != "" || *specPath != ""):
		cli.Sayln(stderr, "recommend: -dag conflicts with -workflow, -spec and -suite")
		return 2
	case *suite && (*name != "" || *specPath != ""):
		cli.Sayln(stderr, "recommend: -suite conflicts with -workflow and -spec")
		return 2
	case *name != "" && *specPath != "":
		cli.Sayln(stderr, "recommend: -workflow and -spec are alternatives; pick one")
		return 2
	case !*suite && *name == "" && *specPath == "" && *dagPath == "":
		cli.Sayln(stderr, "recommend: nothing selected; use -workflow, -spec, -dag or -suite")
		return 2
	}
	if *ranks <= 0 {
		cli.Sayf(stderr, "recommend: -ranks must be positive, got %d\n", *ranks)
		return 2
	}
	// Tier selection rides on the single-workflow path only: the suite
	// and DAG paths have their own configuration spaces.
	var tierSpec pmemsched.TierSpec
	tierAuto := false
	if *tier != "" {
		if *suite || *dagPath != "" {
			cli.Sayln(stderr, "recommend: -tier conflicts with -suite and -dag")
			return 2
		}
		if *tier == "auto" {
			tierAuto = true
		} else {
			pol, err := pmemsched.ParseTierPolicy(*tier)
			if err != nil {
				cli.Sayln(stderr, "recommend:", err)
				return 2
			}
			tierSpec = pmemsched.TierSpec{Policy: pol}
		}
	}

	rt := pmemsched.NewRunner(pmemsched.DefaultEnv(), *parallel)
	if *suite {
		return runSuite(rt, *verify, stdout, stderr)
	}
	if *dagPath != "" {
		f, err := os.Open(*dagPath)
		if err != nil {
			cli.Sayln(stderr, "recommend:", err)
			return 2
		}
		d, err := pmemsched.ReadDAG(f)
		//pmemlint:ignore errflow read-only file; decode errors are checked, a close error cannot lose data
		f.Close()
		if err != nil {
			cli.Sayln(stderr, "recommend:", err)
			return 2
		}
		return reportDAG(d, rt, stdout, stderr)
	}

	var wf pmemsched.Workflow
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			cli.Sayln(stderr, "recommend:", err)
			return 2
		}
		wf, err = pmemsched.ReadWorkflow(f)
		//pmemlint:ignore errflow read-only file; decode errors are checked, a close error cannot lose data
		f.Close()
		if err != nil {
			cli.Sayln(stderr, "recommend:", err)
			return 2
		}
	} else {
		var ok bool
		wf, ok = workloads.ByName(*name, *ranks)
		if !ok {
			cli.Sayf(stderr, "recommend: unknown workflow %q (see wfrun -list)\n", *name)
			return 2
		}
	}

	if tierAuto {
		return reportTier(wf, rt, stdout, stderr)
	}
	wf.Tier = tierSpec
	return report(wf, rt, *verify, stdout, stderr)
}

// reportTier sweeps every tier policy over the Table I space and
// prints the per-policy best results next to the recommendation.
func reportTier(wf pmemsched.Workflow, rt *pmemsched.Runner, stdout, stderr io.Writer) int {
	choice, err := pmemsched.RecommendTier(rt, wf)
	if err != nil {
		cli.Sayln(stderr, "recommend:", err)
		return 1
	}
	cli.Sayf(stdout, "workflow:  %s\n", wf)
	for _, tr := range choice.PerTier {
		cli.Sayf(stdout, "  %-18s best %-7s %s\n", tr.Tier.Label(),
			tr.Best.Config.Label(), units.FormatSeconds(tr.Best.TotalSeconds))
	}
	cli.Sayf(stdout, "recommend: %s under %s\n", choice.Tier.Label(), choice.Best.Config.Label())
	if gain := choice.Improvement(); gain > 0 {
		cli.Sayf(stdout, "gain:      %s over the best pmem-only configuration\n", units.FormatSeconds(gain))
	} else {
		cli.Sayln(stdout, "gain:      none (pmem-only remains best)")
	}
	return 0
}

// fmtRegret renders a regret fraction; NaN means the regret is
// undefined (unmeasured configuration or zero-work oracle) and must
// never read as 0%.
func fmtRegret(r float64) string {
	if math.IsNaN(r) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", r*100)
}

func report(wf pmemsched.Workflow, rt *pmemsched.Runner, verify bool, stdout, stderr io.Writer) int {
	out, err := rt.AutoSchedule(wf, verify)
	if err != nil {
		cli.Sayln(stderr, "recommend:", err)
		return 1
	}
	rec := out.Recommendation
	cli.Sayf(stdout, "workflow:  %s\n", wf)
	cli.Sayf(stdout, "features:  %s\n", rec.Features)
	cli.Sayf(stdout, "rule:      Table II row %d (%s)\n", rec.Row.ID, rec.Row.Illustrative)
	cli.Sayf(stdout, "recommend: %s\n", rec.Config.Label())
	cli.Sayf(stdout, "runtime:   %s\n", units.FormatSeconds(out.Chosen.TotalSeconds))
	if verify {
		cli.Sayf(stdout, "oracle:    %s (%s)\n", out.Oracle.Best.Config.Label(),
			units.FormatSeconds(out.Oracle.Best.TotalSeconds))
		cli.Sayf(stdout, "regret:    %s\n", fmtRegret(out.Regret))
	}
	return 0
}

// reportDAG tunes per-stage configurations for a DAG workflow and
// prints the assignment next to the best uniform configuration. The
// tuner may also move a stage's in-edges onto the NVStream stack (the
// base engine runs NOVA, the CLIs' default).
func reportDAG(d pmemsched.DAG, rt *pmemsched.Runner, stdout, stderr io.Writer) int {
	nv := pmemsched.DefaultEnv()
	nv.NewStack = func() stack.Instance { return nvstream.Default() }
	nv.Tag = "nvstream"
	tuned, err := pmemsched.TuneDAG(rt, d, pmemsched.DAGOptions{
		Stacks: []pmemsched.NamedEnv{{Name: "nvstream", Env: nv}},
	})
	if err != nil {
		cli.Sayln(stderr, "recommend:", err)
		return 1
	}
	cli.Sayf(stdout, "dag:       %s\n", d)
	cli.Sayf(stdout, "evaluated: %d assignments\n", tuned.Evaluations)
	cli.Sayf(stdout, "%-20s %6s  %-7s %s\n", "stage", "ranks", "config", "stack")
	for i, st := range d.Stages {
		sc := tuned.Assignment.Stages[i]
		ranks := st.Ranks
		if sc.Ranks > 0 {
			ranks = sc.Ranks
		}
		stackName := sc.Stack
		if stackName == "" {
			stackName = "nova"
		}
		cfg := pmemsched.Config{Mode: sc.Mode, Placement: sc.Place}
		cli.Sayf(stdout, "%-20s %6d  %-7s %s\n", st.Name, ranks, cfg.Label(), stackName)
	}
	cli.Sayf(stdout, "tuned:     makespan %s, cost %.1f core-s\n",
		units.FormatSeconds(tuned.Prediction.MakespanSeconds), tuned.Prediction.CostCoreSeconds)
	ucfg := pmemsched.Config{Mode: tuned.Uniform.Mode, Placement: tuned.Uniform.Place}
	cli.Sayf(stdout, "uniform:   %s — makespan %s, cost %.1f core-s\n",
		ucfg.Label(), units.FormatSeconds(tuned.UniformPrediction.MakespanSeconds), tuned.UniformPrediction.CostCoreSeconds)
	return 0
}

func runSuite(rt *pmemsched.Runner, verify bool, stdout, stderr io.Writer) int {
	matched, total := 0, 0
	for _, wf := range pmemsched.Suite() {
		out, err := rt.AutoSchedule(wf, verify)
		if err != nil {
			cli.Sayln(stderr, "recommend:", err)
			return 1
		}
		total++
		line := fmt.Sprintf("%-28s rule #%-2d -> %-7s", wf.Name,
			out.Recommendation.Row.ID, out.Recommendation.Config.Label())
		if verify {
			ok := out.Recommendation.Config == out.Oracle.Best.Config
			if ok {
				matched++
			}
			if math.IsNaN(out.Regret) {
				line += fmt.Sprintf("  oracle %-7s regret   n/a", out.Oracle.Best.Config.Label())
			} else {
				line += fmt.Sprintf("  oracle %-7s regret %5.1f%%", out.Oracle.Best.Config.Label(), out.Regret*100)
			}
		}
		cli.Sayln(stdout, line)
	}
	if verify {
		cli.Sayf(stdout, "matched oracle: %d/%d\n", matched, total)
	}
	return 0
}
