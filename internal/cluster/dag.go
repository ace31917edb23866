package cluster

import (
	"fmt"
	"math/rand"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
)

// DAG jobs in the cluster model. A DAG job carries the full
// workflow.DAGSpec next to its envelope Spec (Job.Workflow): the
// envelope drives everything shaped like a pair job — capacity
// (Ranks = the DAG's widest stage, since its edges timeshare one
// node's sockets), metrics, and wire names — while duration estimation
// routes to the staged cost model through the DAGEstimator extension.

// DAGEstimator is the optional Estimator extension that prices DAG
// jobs. The production runner-backed estimator implements it with
// core.PredictDAG; canned test estimators that don't are rejected at
// estimation time, never silently priced off the envelope.
type DAGEstimator interface {
	// EstimateDAG returns the DAG's end-to-end critical-path runtime
	// under a uniform mode/placement, on a dedicated node.
	EstimateDAG(d workflow.DAGSpec, cfg core.Config) (float64, error)
	// RecommendDAG returns the uniform Table I configuration with the
	// smallest predicted makespan (ties to Table I order).
	RecommendDAG(d workflow.DAGSpec) (core.Config, error)
}

func (e runnerEstimator) EstimateDAG(d workflow.DAGSpec, cfg core.Config) (float64, error) {
	asg := core.UniformAssignment(d, core.StageConfig{Mode: cfg.Mode, Place: cfg.Placement})
	p, err := core.PredictDAG(e.rt, d, asg, core.DAGOptions{})
	if err != nil {
		return 0, err
	}
	return p.MakespanSeconds, nil
}

func (e runnerEstimator) RecommendDAG(d workflow.DAGSpec) (core.Config, error) {
	best, bestT := core.Config{}, 0.0
	for i, cfg := range core.Configs {
		t, err := e.EstimateDAG(d, cfg)
		if err != nil {
			return core.Config{}, err
		}
		if i == 0 || t < bestT {
			best, bestT = cfg, t
		}
	}
	return best, nil
}

// dagEstimator asserts the estimator can price DAG jobs.
func dagEstimator(est Estimator, j Job) (DAGEstimator, error) {
	de, ok := est.(DAGEstimator)
	if !ok {
		return nil, fmt.Errorf("cluster: job %d (%s) is a DAG but estimator %T cannot price DAGs", j.ID, j.Workflow.Name, est)
	}
	return de, nil
}

// estimateJob prices one job by kind: pair jobs through the Estimator,
// DAG jobs through the DAGEstimator extension.
func estimateJob(est Estimator, j Job, cfg core.Config) (float64, error) {
	if j.DAG == nil {
		return est.Estimate(j.Workflow, cfg)
	}
	de, err := dagEstimator(est, j)
	if err != nil {
		return 0, err
	}
	return de.EstimateDAG(*j.DAG, cfg)
}

// recommendJob picks one job's configuration by kind.
func recommendJob(est Estimator, j Job) (core.Config, error) {
	if j.DAG == nil {
		return est.Recommend(j.Workflow)
	}
	de, err := dagEstimator(est, j)
	if err != nil {
		return core.Config{}, err
	}
	return de.RecommendDAG(*j.DAG)
}

// profileJob fetches one job's PMEM-demand profile by kind. DAG jobs
// report the zero profile: their edges alternate through the node over
// the makespan, so a single steady-state demand pair would overstate
// them — the interference model treats them as unprofiled background
// load.
func profileJob(est Estimator, j Job, cfg core.Config) (JobProfile, error) {
	if j.DAG == nil {
		return est.Profile(j.Workflow, cfg)
	}
	if _, err := dagEstimator(est, j); err != nil {
		return JobProfile{}, err
	}
	return JobProfile{}, nil
}

// validateJob checks one job: its arrival and workflow (envelope)
// spec always, and for DAG jobs the DAG itself plus envelope
// consistency, so every consumer (capacity math, metrics) can trust
// the envelope's name and rank count.
func validateJob(j Job) error {
	if err := checkArrival(j.ArrivalSeconds); err != nil {
		return err
	}
	if err := j.Workflow.Validate(); err != nil {
		return err
	}
	if j.DAG == nil {
		return nil
	}
	if err := j.DAG.Validate(); err != nil {
		return err
	}
	if j.Workflow.Name != j.DAG.Name {
		return fmt.Errorf("dag job envelope named %q, dag named %q", j.Workflow.Name, j.DAG.Name)
	}
	if j.Workflow.Ranks != j.DAG.MaxRanks() {
		return fmt.Errorf("dag job envelope has %d ranks, dag's widest stage has %d", j.Workflow.Ranks, j.DAG.MaxRanks())
	}
	return nil
}

// SyntheticDAG draws an arrival trace of DAG jobs: Jobs copies of the
// DAG with Poisson arrivals from the config's seed, mirroring
// Synthetic for pair workloads.
func SyntheticDAG(d workflow.DAGSpec, cfg SyntheticConfig) (Trace, error) {
	if err := d.Validate(); err != nil {
		return Trace{}, err
	}
	if cfg.Jobs <= 0 {
		return Trace{}, fmt.Errorf("cluster: synthetic trace needs a positive job count (got %d)", cfg.Jobs)
	}
	if cfg.MeanInterarrivalSeconds <= 0 {
		return Trace{}, fmt.Errorf("cluster: synthetic trace needs a positive mean inter-arrival (got %g)", cfg.MeanInterarrivalSeconds)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	env := d.Envelope()
	dd := d
	var tr Trace
	at := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		tr.Jobs = append(tr.Jobs, Job{ID: i, Workflow: env, DAG: &dd, ArrivalSeconds: at})
		at += rng.ExpFloat64() * cfg.MeanInterarrivalSeconds
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}
