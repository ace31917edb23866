package core

import (
	"reflect"
	"testing"

	"pmemsched/internal/stack"
	"pmemsched/internal/stack/faultinject"
	"pmemsched/internal/stack/nvstream"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// The decision searches submit independent work to the runner as
// batches. Batching is scheduling only: these tests pin that TuneDAG
// and RecommendTier return what a one-at-a-time walk returns, make the
// same runner requests and fail with the same error, on any pool size.

// serialTuneDAG is TuneDAG's search predicting one assignment at a
// time: the reference the batched search must reproduce.
func serialTuneDAG(rt *Runner, d workflow.DAGSpec, opt DAGOptions) (TunedDAG, error) {
	cands, err := candidateConfigs(opt)
	if err != nil {
		return TunedDAG{}, err
	}
	seen := make(map[cacheKey]dagEval)
	eval := func(asg DAGAssignment) (dagEval, error) {
		key := dagKey(rt.envKey, d, asg)
		if ev, ok := seen[key]; ok {
			return ev, nil
		}
		p, err := PredictDAG(rt, d, asg, opt)
		if err != nil {
			return dagEval{}, err
		}
		ev := dagEval{asg: asg, pred: p, feasible: dagFeasible(p, opt)}
		seen[key] = ev
		return ev, nil
	}
	var best dagEval
	var bestSC StageConfig
	for i, sc := range cands {
		ev, err := eval(UniformAssignment(d, sc))
		if err != nil {
			return TunedDAG{}, err
		}
		if i == 0 || dagBetter(ev, best, opt) {
			best, bestSC = ev, sc
		}
	}
	cur := dagEval{asg: cloneAssignment(best.asg), pred: best.pred, feasible: best.feasible}
	for pass := 0; pass < maxTunePasses; pass++ {
		improved := false
		for si := range d.Stages {
			for _, sc := range cands {
				if sc == cur.asg.Stages[si] {
					continue
				}
				trial := cloneAssignment(cur.asg)
				trial.Stages[si] = sc
				ev, err := eval(trial)
				if err != nil {
					return TunedDAG{}, err
				}
				if dagBetter(ev, cur, opt) {
					cur, improved = ev, true
				}
			}
		}
		if !improved {
			break
		}
	}
	return TunedDAG{
		Assignment:        cur.asg,
		Prediction:        cur.pred,
		Uniform:           bestSC,
		UniformPrediction: best.pred,
		Feasible:          cur.feasible,
		Evaluations:       len(seen),
	}, nil
}

// serialRecommendTier is RecommendTier's sweep one tier at a time.
func serialRecommendTier(rt *Runner, wf workflow.Spec) (TierChoice, error) {
	var choice TierChoice
	for i, tier := range TierCandidates() {
		tiered := wf
		tiered.Tier = tier
		results, err := rt.RunAll(tiered)
		if err != nil {
			return TierChoice{}, err
		}
		best := Best(results)
		choice.PerTier = append(choice.PerTier, TierResult{Tier: tier, Best: best, All: results})
		if i == 0 {
			choice.Tier, choice.Best, choice.Baseline = tier, best, best
		} else if best.TotalSeconds < choice.Best.TotalSeconds {
			choice.Tier, choice.Best = tier, best
		}
	}
	return choice, nil
}

// checkSameTraffic asserts the batched search asked the runner for
// exactly what the serial one did: no speculative and no duplicated
// request. Hits may turn into in-flight joins, so only their sum with
// the misses is pinned.
func checkSameTraffic(t *testing.T, workers int, got, want RunnerStats) {
	t.Helper()
	if got.Misses != want.Misses || got.Runs() != want.Runs() {
		t.Errorf("%d workers: %d misses / %d requests, serial walk %d / %d",
			workers, got.Misses, got.Runs(), want.Misses, want.Runs())
	}
}

func TestTuneDAGIndependentOfPoolSize(t *testing.T) {
	d := testDAG()
	opt := DAGOptions{
		Stacks:      []NamedEnv{{Name: "nvstream", Env: nvstreamEnv()}},
		RankChoices: []int{4, 16},
		TierChoices: []workflow.TierSpec{{Policy: workflow.TierDRAMFirstSpill}},
		// Binds: the unconstrained tuning costs about 23 core-seconds and
		// the cheapest assignment about 20.
		CostBudgetCoreSeconds: 22,
	}
	ref := NewRunner(DefaultEnv(), 1)
	want, err := serialTuneDAG(ref, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Feasible || want.Evaluations <= len(d.Stages)*4 {
		t.Fatalf("degenerate search: feasible %v after %d evaluations", want.Feasible, want.Evaluations)
	}
	for _, workers := range []int{1, 4} {
		rt := NewRunner(DefaultEnv(), workers)
		got, err := TuneDAG(rt, d, opt)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: tuned\n %+v\nserial walk\n %+v", workers, got, want)
		}
		checkSameTraffic(t, workers, rt.Stats(), ref.Stats())
	}
}

// A candidate that fails mid-list must fail the batched search with
// the error the serial walk meets first, not with whichever failing
// prediction happened to finish first.
func TestTuneDAGErrorMatchesSerialOrder(t *testing.T) {
	failing := func(name string, mode faultinject.Mode) NamedEnv {
		return NamedEnv{Name: name, Env: Env{Tag: name, NewStack: func() stack.Instance {
			return faultinject.New(nvstream.Default(), mode, 1, 1)
		}}}
	}
	d := testDAG()
	opt := DAGOptions{Stacks: []NamedEnv{
		failing("drop", faultinject.DropAppends),
		failing("stall", faultinject.StallCommits),
	}}
	_, want := serialTuneDAG(NewRunner(DefaultEnv(), 1), d, opt)
	if want == nil {
		t.Fatal("serial walk over failing stacks succeeded")
	}
	for _, workers := range []int{1, 4} {
		_, err := TuneDAG(NewRunner(DefaultEnv(), workers), d, opt)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%d workers: error %v, serial walk %v", workers, err, want)
		}
	}
}

func TestRecommendTierIndependentOfPoolSize(t *testing.T) {
	wf := workloads.MicroWorkflow(workloads.MicroObjectSmall, 8)
	ref := NewRunner(DefaultEnv(), 1)
	want, err := serialRecommendTier(ref, wf)
	if err != nil {
		t.Fatal(err)
	}
	if want.Tier == (workflow.TierSpec{}) {
		t.Fatal("pmem-only won: the fixture no longer exercises the tier selection")
	}
	for _, workers := range []int{1, 4} {
		rt := NewRunner(DefaultEnv(), workers)
		got, err := RecommendTier(rt, wf)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: recommended\n %+v\nserial sweep\n %+v", workers, got, want)
		}
		checkSameTraffic(t, workers, rt.Stats(), ref.Stats())
	}
}
