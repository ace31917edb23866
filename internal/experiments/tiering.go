package experiments

import (
	"fmt"

	"pmemsched/internal/core"
	"pmemsched/internal/trace"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// Tiering evaluates the multi-tier memory extension: for each workload
// class the tier search sweeps every Table I configuration under every
// tier policy (pmem-only, dram-first-spill, write-stage-drain,
// hot-promote) and recommends the best combination. The pmem-only
// column must reproduce the Table I baseline exactly — the tier layer
// with the policy off is the paper's model, not an approximation of it
// — and at least one workload class must have a DRAM-aware policy
// strictly beat the best PMEM-only configuration, or the tier would
// never be worth recommending.
func Tiering(rt *core.Runner) (*Report, error) {
	r := &Report{ID: "tiering", Title: "Multi-tier memory: DRAM-aware policies vs Table I (extension)"}

	cases := []workflow.Spec{
		workloads.MicroWorkflow(workloads.MicroObjectLarge, 8),
		workloads.MicroWorkflow(workloads.MicroObjectLarge, 16),
		workloads.MicroWorkflow(workloads.MicroObjectSmall, 8),
		workloads.MicroWorkflow(workloads.MicroObjectSmall, 16),
		workloads.GTCReadOnly(16),
		workloads.GTCMatrixMult(16),
		workloads.MiniAMRReadOnly(16),
		workloads.MiniAMRMatrixMult(24),
	}

	choices, err := tierChoices(rt, cases)
	if err != nil {
		return nil, err
	}

	t := &trace.Table{Title: "tier recommendations", Columns: []string{
		"workflow", "pmem-only best", "spill", "stage-drain", "hot-promote", "winner", "gain"}}
	baselineExact := true
	anyWin := false
	for i, wf := range cases {
		c := choices[i]
		// The search's pmem-only candidate must be the Table I sweep,
		// field for field.
		results, err := rt.RunAll(wf)
		if err != nil {
			return nil, err
		}
		if core.Best(results) != c.Baseline {
			baselineExact = false
		}
		if c.Improvement() > 0 {
			anyWin = true
		}
		t.AddRow(wf.Name,
			fmt.Sprintf("%s %.3fs", c.Baseline.Config.Label(), c.Baseline.TotalSeconds),
			fmt.Sprintf("%.3fs", c.PerTier[1].Best.TotalSeconds),
			fmt.Sprintf("%.3fs", c.PerTier[2].Best.TotalSeconds),
			fmt.Sprintf("%.3fs", c.PerTier[3].Best.TotalSeconds),
			c.Tier.Label(),
			fmtSpeedup(c.Baseline.TotalSeconds, c.Best.TotalSeconds))
	}
	r.Table(t)

	r.Check("pmem-only tier reproduces Table I exactly",
		"tier layer off is the paper's model bit for bit",
		fmt.Sprint(baselineExact), baselineExact)
	r.Check("a DRAM-aware policy strictly beats the best PMEM-only configuration for some workload",
		"DRAM staging pays off at least for small-object streams",
		fmt.Sprint(anyWin), anyWin)

	// Determinism: the whole sweep on a fresh engine (empty cache) must
	// reproduce every number bit for bit.
	fresh, err := tierChoices(core.NewRunner(rt.Env(), rt.Workers()), cases)
	if err != nil {
		return nil, err
	}
	identical := true
	for i := range choices {
		if choices[i].Best != fresh[i].Best || choices[i].Baseline != fresh[i].Baseline ||
			choices[i].Tier != fresh[i].Tier {
			identical = false
		}
	}
	r.Check("byte-identical rerun on a fresh engine",
		"deterministic model", fmt.Sprint(identical), identical)
	return r, nil
}

// tierChoices runs the tier search for every case on the engine.
func tierChoices(rt *core.Runner, cases []workflow.Spec) ([]core.TierChoice, error) {
	out := make([]core.TierChoice, len(cases))
	for i, wf := range cases {
		c, err := core.RecommendTier(rt, wf)
		if err != nil {
			return nil, fmt.Errorf("experiments: tier search for %s: %w", wf.Name, err)
		}
		out[i] = c
	}
	return out, nil
}

// fmtSpeedup renders the winner's gain over the baseline ("-" when the
// baseline won).
func fmtSpeedup(baseline, best float64) string {
	if best >= baseline {
		return "-"
	}
	return fmtPct(baseline / best)
}
