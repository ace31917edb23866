package core

import (
	"pmemsched/internal/workflow"
)

// Tier-policy search: extend the paper's Table I configuration sweep
// with the multi-tier memory policies and recommend the (policy,
// config) pair with the smallest predicted runtime. Ties break toward
// pmem-only and then toward the earlier Table I ordering, so the
// search never leaves the paper's baseline without a strict win.

// TierCandidates returns the tier policies the search explores, in
// fixed order: pmem-only (the zero spec) first, then each DRAM-aware
// policy with package-default parameters.
func TierCandidates() []workflow.TierSpec {
	return []workflow.TierSpec{
		{},
		{Policy: workflow.TierDRAMFirstSpill},
		{Policy: workflow.TierWriteStageDrain},
		{Policy: workflow.TierHotPromote},
	}
}

// TierResult pairs one candidate policy with its best Table I result.
type TierResult struct {
	Tier workflow.TierSpec
	Best Result
	// All are the policy's results in Table I Configs order.
	All []Result
}

// TierChoice is RecommendTier's output.
type TierChoice struct {
	// Tier and Best are the winning policy and its best-config result.
	Tier workflow.TierSpec
	Best Result
	// Baseline is the best pmem-only Table I result (the paper's
	// recommendation target); Best == Baseline when no DRAM-aware
	// policy strictly beats it.
	Baseline Result
	// PerTier holds each candidate's best result in TierCandidates
	// order, for reporting.
	PerTier []TierResult
}

// Improvement returns baseline minus best runtime (zero when pmem-only
// wins).
func (c TierChoice) Improvement() float64 {
	return c.Baseline.TotalSeconds - c.Best.TotalSeconds
}

// RecommendTier sweeps every candidate tier policy over the full
// Table I configuration space on the runner and returns the best
// combination. The workflow's own Tier field is ignored: candidates
// replace it. The whole tier × config sweep is one RunBatch, so the
// worker pool overlaps all of it; selection then walks the results in
// candidate order.
func RecommendTier(rt *Runner, wf workflow.Spec) (TierChoice, error) {
	tiers := TierCandidates()
	jobs := make([]Job, 0, len(tiers)*len(Configs))
	for _, tier := range tiers {
		tiered := wf
		tiered.Tier = tier
		for _, cfg := range Configs {
			jobs = append(jobs, ConfigJob(tiered, cfg))
		}
	}
	all, err := rt.RunBatch(jobs)
	if err != nil {
		return TierChoice{}, err
	}
	var choice TierChoice
	for i, tier := range tiers {
		results := all[i*len(Configs) : (i+1)*len(Configs) : (i+1)*len(Configs)]
		for j, cfg := range Configs {
			results[j].Config = cfg
		}
		best := Best(results)
		choice.PerTier = append(choice.PerTier, TierResult{Tier: tier, Best: best, All: results})
		if i == 0 {
			choice.Tier, choice.Best, choice.Baseline = tier, best, best
			continue
		}
		if best.TotalSeconds < choice.Best.TotalSeconds {
			choice.Tier, choice.Best = tier, best
		}
	}
	return choice, nil
}
