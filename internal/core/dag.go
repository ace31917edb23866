package core

import (
	"fmt"
	"sort"

	"pmemsched/internal/workflow"
)

// DAG prediction and per-stage configuration tuning. A DAG workflow
// (workflow.DAGSpec) lowers edge by edge to the paper's two-component
// kernel; this file composes those per-edge predicted runtimes along
// the critical path into a makespan and a core-seconds cost, and
// searches per-stage rank-count × mode × placement × stack assignments
// under cost/makespan budgets (the Jolteon shape: tune each stage's
// resources, respect the pipeline's end-to-end constraints). All
// predictions run on the memoized Runner, so configurations sharing a
// sub-stage config coalesce into one simulation.

// StageConfig is one stage's tunable execution config: how many ranks
// it runs with, which of the paper's mode/placement cells its in-edges
// execute under, and which software stack serves its reads.
type StageConfig struct {
	// Ranks overrides the stage's declared rank count when positive;
	// zero keeps the spec's count.
	Ranks int
	// Mode schedules the stage against each of its producers (commit
	// edges force Serial regardless).
	Mode Mode
	// Place picks the PMEM locality of the stage's in-edges.
	Place Placement
	// Stack names the storage stack serving the stage's in-edges; the
	// empty string keeps the runner's base environment. Named stacks
	// are resolved against DAGOptions.Stacks.
	Stack string
	// Tier overrides the stage's declared memory-tier policy for the
	// edges it produces; the zero value keeps the spec's declaration.
	// All scalars, so StageConfig stays comparable (the tuner compares
	// candidates with ==).
	Tier workflow.TierSpec
}

// DAGAssignment assigns a StageConfig to every stage, index-aligned
// with DAGSpec.Stages. The zero assignment (or one with all-zero
// entries) runs every stage as declared: spec ranks, S-LocW, base
// stack.
type DAGAssignment struct {
	Stages []StageConfig
}

// NamedEnv is a selectable software stack for DAG tuning: a name the
// assignment refers to and the environment that realizes it.
type NamedEnv struct {
	Name string
	Env  Env
}

// Objective selects what TuneDAG minimizes first; the other axis
// breaks ties.
type Objective uint8

const (
	// MinMakespan minimizes end-to-end predicted runtime, then cost.
	MinMakespan Objective = iota
	// MinCost minimizes core-seconds cost, then makespan.
	MinCost
)

func (o Objective) String() string {
	if o == MinCost {
		return "min-cost"
	}
	return "min-makespan"
}

// DAGOptions parameterizes DAG prediction and tuning.
type DAGOptions struct {
	// Stacks are the software stacks the tuner may assign per stage, in
	// addition to the runner's base environment (the empty name).
	Stacks []NamedEnv
	// RankChoices are the per-stage rank counts the tuner may try, in
	// addition to each stage's declared count (choice 0).
	RankChoices []int
	// TierChoices are the memory-tier policies the tuner may assign per
	// stage, in addition to each stage's declared tier (choice 0, the
	// zero spec). Empty keeps the search space — and hence every
	// prediction — identical to the pre-tier tuner.
	TierChoices []workflow.TierSpec
	// MakespanBudgetSeconds caps the predicted makespan; zero means
	// unconstrained.
	MakespanBudgetSeconds float64
	// CostBudgetCoreSeconds caps the predicted core-seconds cost; zero
	// means unconstrained.
	CostBudgetCoreSeconds float64
	// Objective selects the primary minimization axis.
	Objective Objective
}

// UniformAssignment assigns the same config to every stage.
func UniformAssignment(d workflow.DAGSpec, sc StageConfig) DAGAssignment {
	out := DAGAssignment{Stages: make([]StageConfig, len(d.Stages))}
	for i := range out.Stages {
		out.Stages[i] = sc
	}
	return out
}

// EdgePrediction is one edge's predicted execution within a DAG
// prediction.
type EdgePrediction struct {
	From  string
	To    string
	Ranks int    // exchange width (the wider endpoint)
	Cfg   Config // mode/placement the pair ran under
	Stack string // consumer's stack name ("" = base)
	// StartSeconds is when the producing stage's inputs were all
	// committed; Seconds is the pair kernel's predicted runtime;
	// DoneSeconds = StartSeconds + Seconds.
	StartSeconds float64
	Seconds      float64
	DoneSeconds  float64
}

// DAGPrediction is the staged cost model's output: per-edge runtimes
// composed along the critical path.
type DAGPrediction struct {
	Name string
	// MakespanSeconds is the critical-path end-to-end runtime. The
	// model is store-and-forward: a consumer stage starts only after
	// every producer's exchange completes, and a producer feeding
	// several consumers re-runs its writer kernel per edge (no
	// broadcast credit).
	MakespanSeconds float64
	// CostCoreSeconds charges each edge 2·width·runtime: the pair
	// occupies width ranks on each of two sockets while it runs.
	CostCoreSeconds float64
	// Edges are per-edge predictions in DAGSpec.Edges order.
	Edges []EdgePrediction
}

// dagStageIndex returns the declaration index of the named stage
// (validated DAGs always resolve).
func dagStageIndex(d workflow.DAGSpec, name string) int {
	for i, s := range d.Stages {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// normalizeAssignment expands the zero assignment and checks shape and
// ranges.
func normalizeAssignment(d workflow.DAGSpec, asg DAGAssignment) ([]StageConfig, error) {
	stages := asg.Stages
	if len(stages) == 0 {
		stages = make([]StageConfig, len(d.Stages))
	}
	if len(stages) != len(d.Stages) {
		return nil, fmt.Errorf("core: dag %q: assignment covers %d stages, want %d", d.Name, len(stages), len(d.Stages))
	}
	for i, sc := range stages {
		if sc.Ranks < 0 {
			return nil, fmt.Errorf("core: dag %q: stage %q: negative rank override %d", d.Name, d.Stages[i].Name, sc.Ranks)
		}
	}
	return stages, nil
}

// stackRunners resolves the base environment ("") and each of the
// options' named stacks to a runner sharing rt's worker pool and cache.
// Deriving a runner fingerprints its environment, so a search resolves
// its stacks once, not once per stage of every prediction. A repeated
// name keeps its first environment.
func stackRunners(rt *Runner, opt DAGOptions) map[string]*Runner {
	runners := make(map[string]*Runner, len(opt.Stacks)+1)
	runners[""] = rt
	for _, ne := range opt.Stacks {
		if _, ok := runners[ne.Name]; !ok {
			runners[ne.Name] = rt.WithEnv(ne.Env)
		}
	}
	return runners
}

// PredictDAG runs the staged cost model for one assignment: each edge
// lowers to a pair kernel (CompileEdge), executes on the consumer
// stage's mode/placement/stack, and composes along the critical path.
// Edges are processed in topological order of their producing stage
// (declaration order among ties), so the output is byte-identical
// across runs.
func PredictDAG(rt *Runner, d workflow.DAGSpec, asg DAGAssignment, opt DAGOptions) (DAGPrediction, error) {
	if err := d.Validate(); err != nil {
		return DAGPrediction{}, err
	}
	return predictDAG(stackRunners(rt, opt), d, asg, opt)
}

// predictDAG is PredictDAG on a validated DAG, with its stacks
// resolved by stackRunners.
func predictDAG(stacks map[string]*Runner, d workflow.DAGSpec, asg DAGAssignment, opt DAGOptions) (DAGPrediction, error) {
	stages, err := normalizeAssignment(d, asg)
	if err != nil {
		return DAGPrediction{}, err
	}
	runners := make([]*Runner, len(stages))
	for i, sc := range stages {
		r, ok := stacks[sc.Stack]
		if !ok {
			return DAGPrediction{}, fmt.Errorf("core: dag %q: stage %q: core: unknown stack %q (options name %d stacks)",
				d.Name, d.Stages[i].Name, sc.Stack, len(opt.Stacks))
		}
		runners[i] = r
	}

	topo, err := d.Topo()
	if err != nil {
		return DAGPrediction{}, err
	}
	pos := make([]int, len(d.Stages))
	for p, i := range topo {
		pos[i] = p
	}
	order := make([]int, len(d.Edges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pos[dagStageIndex(d, d.Edges[order[a]].From)] < pos[dagStageIndex(d, d.Edges[order[b]].From)]
	})

	pred := DAGPrediction{Name: d.Name, Edges: make([]EdgePrediction, len(d.Edges))}
	ready := make([]float64, len(d.Stages))
	for _, ei := range order {
		e := d.Edges[ei]
		ui, vi := dagStageIndex(d, e.From), dagStageIndex(d, e.To)
		ru, rv := d.Stages[ui].Ranks, d.Stages[vi].Ranks
		if stages[ui].Ranks > 0 {
			ru = stages[ui].Ranks
		}
		if stages[vi].Ranks > 0 {
			rv = stages[vi].Ranks
		}
		pair, err := d.CompileEdge(e, ru, rv)
		if err != nil {
			return DAGPrediction{}, err
		}
		// The producer owns the tier placement of the data it writes, so
		// a tier override comes from the producing stage's config.
		if stages[ui].Tier != (workflow.TierSpec{}) {
			pair.Tier = stages[ui].Tier
		}
		cfg := Config{Mode: stages[vi].Mode, Placement: stages[vi].Place}
		if e.Kind() == workflow.EdgeCommit {
			cfg.Mode = Serial
		}
		res, err := runners[vi].Run(pair, cfg)
		if err != nil {
			return DAGPrediction{}, fmt.Errorf("core: dag %q: edge %s>%s: %w", d.Name, e.From, e.To, err)
		}
		start := ready[ui]
		done := start + res.TotalSeconds
		if done > ready[vi] {
			ready[vi] = done
		}
		if done > pred.MakespanSeconds {
			pred.MakespanSeconds = done
		}
		pred.CostCoreSeconds += 2 * float64(pair.Ranks) * res.TotalSeconds
		pred.Edges[ei] = EdgePrediction{
			From:         e.From,
			To:           e.To,
			Ranks:        pair.Ranks,
			Cfg:          cfg,
			Stack:        stages[vi].Stack,
			StartSeconds: start,
			Seconds:      res.TotalSeconds,
			DoneSeconds:  done,
		}
	}
	return pred, nil
}

// TunedDAG is TuneDAG's result: the tuned per-stage assignment, the
// best uniform config it was seeded from, and their predictions. The
// tuner adopts only strict improvements, so the tuned prediction is
// never worse than the best uniform one.
type TunedDAG struct {
	Assignment        DAGAssignment
	Prediction        DAGPrediction
	Uniform           StageConfig
	UniformPrediction DAGPrediction
	// Feasible reports whether the tuned prediction fits the budgets;
	// when no candidate fits, TuneDAG still returns the best-effort
	// minimum with Feasible false.
	Feasible bool
	// Evaluations counts distinct assignments predicted.
	Evaluations int
}

// maxTunePasses bounds the coordinate-descent sweeps; descent stops
// earlier as soon as a full pass adopts nothing.
const maxTunePasses = 4

// dagEval pairs an assignment with its prediction during tuning.
type dagEval struct {
	asg      DAGAssignment
	pred     DAGPrediction
	feasible bool
}

// dagFeasible checks the prediction against the options' budgets.
func dagFeasible(p DAGPrediction, opt DAGOptions) bool {
	if opt.MakespanBudgetSeconds > 0 && p.MakespanSeconds > opt.MakespanBudgetSeconds {
		return false
	}
	if opt.CostBudgetCoreSeconds > 0 && p.CostCoreSeconds > opt.CostBudgetCoreSeconds {
		return false
	}
	return true
}

// dagObjective orders a prediction on the primary and secondary axes.
func dagObjective(p DAGPrediction, opt DAGOptions) (float64, float64) {
	if opt.Objective == MinCost {
		return p.CostCoreSeconds, p.MakespanSeconds
	}
	return p.MakespanSeconds, p.CostCoreSeconds
}

// dagBetter reports whether a strictly beats b: feasibility first,
// then the lexicographic objective. Strictness is what guarantees
// deterministic tuning — equal candidates keep the earlier one.
func dagBetter(a, b dagEval, opt DAGOptions) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	a1, a2 := dagObjective(a.pred, opt)
	b1, b2 := dagObjective(b.pred, opt)
	if a1 != b1 {
		return a1 < b1
	}
	return a2 < b2
}

// candidateConfigs enumerates the per-stage search space in fixed
// order: rank choices (declared count first) × Table I modes ×
// placements × stacks (base first) × tier policies (declared tier
// first, only when TierChoices is non-empty).
func candidateConfigs(opt DAGOptions) ([]StageConfig, error) {
	ranks := []int{0}
	for _, r := range opt.RankChoices {
		if r <= 0 {
			return nil, fmt.Errorf("core: rank choice %d must be positive", r)
		}
		dup := false
		for _, seen := range ranks {
			if seen == r {
				dup = true
			}
		}
		if !dup {
			ranks = append(ranks, r)
		}
	}
	stacks := []string{""}
	for i, ne := range opt.Stacks {
		if ne.Name == "" {
			return nil, fmt.Errorf("core: stack %d has an empty name (reserved for the base environment)", i)
		}
		for _, seen := range stacks {
			if seen == ne.Name {
				return nil, fmt.Errorf("core: duplicate stack %q", ne.Name)
			}
		}
		stacks = append(stacks, ne.Name)
	}
	tiers := []workflow.TierSpec{{}}
	for _, t := range opt.TierChoices {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("core: tier choice: %w", err)
		}
		dup := false
		for _, seen := range tiers {
			if seen == t {
				dup = true
			}
		}
		if !dup {
			tiers = append(tiers, t)
		}
	}
	var out []StageConfig
	for _, r := range ranks {
		for _, m := range []Mode{Serial, Parallel} {
			for _, p := range []Placement{LocW, LocR} {
				for _, st := range stacks {
					for _, t := range tiers {
						out = append(out, StageConfig{Ranks: r, Mode: m, Place: p, Stack: st, Tier: t})
					}
				}
			}
		}
	}
	return out, nil
}

// cloneAssignment deep-copies an assignment so trials never alias the
// incumbent.
func cloneAssignment(a DAGAssignment) DAGAssignment {
	return DAGAssignment{Stages: append([]StageConfig(nil), a.Stages...)}
}

// TuneDAG searches per-stage configurations for the DAG (Jolteon's
// shape): it first sweeps every uniform candidate config, then runs
// coordinate descent from the best uniform — re-optimizing one stage
// at a time against the full candidate list, adopting only strict
// improvements — until a pass adopts nothing or maxTunePasses is hit.
// The search is deterministic (fixed candidate order, strict
// adoption) and memoizes whole-DAG predictions by content key, so
// revisited assignments cost nothing.
//
// Each candidate list is predicted as one concurrent batch on the
// runner's worker pool before any adoption decision. That is exact,
// not speculative: the uniform sweep's candidates are fixed up front,
// and within stage si's loop adopting a trial changes only
// cur.asg.Stages[si], which every trial overwrites, so the loop's
// trial assignments are fixed when it starts. The serial adoption
// pass then walks the results in candidate order, so the search
// predicts the same assignments and picks the same winner as a
// one-at-a-time walk, whatever the pool size.
func TuneDAG(rt *Runner, d workflow.DAGSpec, opt DAGOptions) (TunedDAG, error) {
	if err := d.Validate(); err != nil {
		return TunedDAG{}, err
	}
	cands, err := candidateConfigs(opt)
	if err != nil {
		return TunedDAG{}, err
	}
	stacks := stackRunners(rt, opt)
	seen := make(map[cacheKey]dagEval)
	// evalAll predicts every assignment not seen before (each distinct
	// key once) concurrently and returns the evaluations in input
	// order; the first error in input order wins.
	evalAll := func(asgs []DAGAssignment) ([]dagEval, error) {
		keys := make([]cacheKey, len(asgs))
		var todo []int
		pending := make(map[cacheKey]bool)
		for j, asg := range asgs {
			keys[j] = dagKey(rt.envKey, d, asg)
			if _, ok := seen[keys[j]]; !ok && !pending[keys[j]] {
				pending[keys[j]] = true
				todo = append(todo, j)
			}
		}
		preds := make([]DAGPrediction, len(todo))
		errs := make([]error, len(todo))
		fanOut(len(todo), rt.Workers(), func(i int) {
			preds[i], errs[i] = predictDAG(stacks, d, asgs[todo[i]], opt)
		})
		for i, j := range todo {
			if errs[i] != nil {
				return nil, errs[i]
			}
			seen[keys[j]] = dagEval{asg: asgs[j], pred: preds[i], feasible: dagFeasible(preds[i], opt)}
		}
		evs := make([]dagEval, len(asgs))
		for j, key := range keys {
			evs[j] = seen[key]
		}
		return evs, nil
	}

	asgs := make([]DAGAssignment, len(cands))
	for i, sc := range cands {
		asgs[i] = UniformAssignment(d, sc)
	}
	evs, err := evalAll(asgs)
	if err != nil {
		return TunedDAG{}, err
	}
	var best dagEval
	var bestSC StageConfig
	for i, ev := range evs {
		if i == 0 || dagBetter(ev, best, opt) {
			best, bestSC = ev, cands[i]
		}
	}
	uniform := best

	cur := dagEval{asg: cloneAssignment(best.asg), pred: best.pred, feasible: best.feasible}
	for pass := 0; pass < maxTunePasses; pass++ {
		improved := false
		for si := range d.Stages {
			// The trial equal to the incumbent is already in seen, so
			// batching it costs nothing; the adoption pass skips it
			// exactly as the one-at-a-time walk did.
			for i, sc := range cands {
				asgs[i] = cloneAssignment(cur.asg)
				asgs[i].Stages[si] = sc
			}
			evs, err := evalAll(asgs)
			if err != nil {
				return TunedDAG{}, err
			}
			for i, sc := range cands {
				if sc == cur.asg.Stages[si] {
					continue
				}
				if dagBetter(evs[i], cur, opt) {
					cur = evs[i]
					improved = true
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
		UniformPrediction: uniform.pred,
		Feasible:          cur.feasible,
		Evaluations:       len(seen),
	}, nil
}
