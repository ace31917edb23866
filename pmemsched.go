// Package pmemsched is a simulation-based reproduction of "Scheduling
// HPC Workflows with Intel Optane Persistent Memory" (Venkatesh, Mason,
// Fernando, Eisenhauer, Gavrilovska — IPDPS Workshops 2021).
//
// It models a dual-socket PMEM server (calibrated to first-generation
// Optane DC Persistent Memory), two PMEM storage stacks (the NOVA
// kernel filesystem and the NVStream userspace object store), and
// in-situ simulation+analytics workflows streaming versioned snapshots
// through PMEM. On top of the simulator it implements the paper's
// contribution: the four-way scheduling configuration space
// (Serial/Parallel execution × local-write/local-read placement), the
// workflow classifier, the Table II recommendation rules, and an
// auto-scheduler realizing the paper's stated future work.
//
// Quick start:
//
//	wf := pmemsched.GTCReadOnly(16)
//	out, err := pmemsched.AutoSchedule(wf, pmemsched.DefaultEnv(), true)
//	// out.Recommendation.Config — what Table II picked
//	// out.Regret — how far from the oracle's best it landed
//
// The cmd/wfsuite binary regenerates every table and figure of the
// paper's evaluation; cmd/recommend classifies and recommends for a
// workflow described on the command line; cmd/pmemchar prints the
// calibrated device curves; cmd/calibrate re-runs the calibration
// search.
package pmemsched

import (
	"io"

	"pmemsched/internal/core"
	"pmemsched/internal/experiments"
	"pmemsched/internal/numa"
	"pmemsched/internal/platform"
	"pmemsched/internal/pmem"
	"pmemsched/internal/sim"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// Scheduling configuration space (paper Table I).
type (
	// Config is one scheduling configuration: execution mode ×
	// placement.
	Config = core.Config
	// Mode is the Serial/Parallel execution dimension.
	Mode = core.Mode
	// Placement is the PMEM-locality dimension.
	Placement = core.Placement
)

// The four configurations of Table I.
var (
	SLocW = core.SLocW
	SLocR = core.SLocR
	PLocW = core.PLocW
	PLocR = core.PLocR
	// Configs lists all four in Table I order.
	Configs = core.Configs
)

// Execution-mode and placement constants.
const (
	Serial   = core.Serial
	Parallel = core.Parallel
	LocW     = core.LocW
	LocR     = core.LocR
)

// ParseConfig converts a label like "S-LocW" into a Config.
func ParseConfig(label string) (Config, error) { return core.ParseConfig(label) }

// Workflow modeling.
type (
	// Workflow is a coupled simulation+analytics pipeline.
	Workflow = workflow.Spec
	// Component describes one workflow component's iteration cycle and
	// snapshot composition.
	Component = workflow.ComponentSpec
	// ObjectSpec is one object population within a snapshot.
	ObjectSpec = workflow.ObjectSpec
	// AnalyticsKernel describes an analytics component's compute.
	AnalyticsKernel = workflow.AnalyticsKernel
)

// Couple builds a workflow from a simulation component and an
// analytics kernel reading its snapshots (the paper's 1:1 exchange).
func Couple(name string, sim Component, analytics AnalyticsKernel, ranks, iterations int) Workflow {
	return workflow.Couple(name, sim, analytics, ranks, iterations)
}

// ReadWorkflow decodes and validates a workflow spec from JSON (see
// internal/workflow's documented schema; cmd/wfrun -spec uses this).
func ReadWorkflow(r io.Reader) (Workflow, error) { return workflow.ReadSpec(r) }

// WriteWorkflow encodes a workflow spec as JSON.
func WriteWorkflow(w io.Writer, wf Workflow) error { return workflow.WriteSpec(w, wf) }

// Multi-tier memory (extension): part of a workflow's working set may
// live in socket DRAM instead of PMEM, under one of four policies. The
// zero TierSpec is pmem-only — exactly the paper's model.
type (
	// TierSpec selects a memory-tier policy and its parameters for a
	// workflow (set Workflow.Tier).
	TierSpec = workflow.TierSpec
	// TierPolicy is the tier policy enumeration.
	TierPolicy = workflow.TierPolicy
	// TierChoice is RecommendTier's output: the winning (policy,
	// configuration) pair next to the pmem-only baseline.
	TierChoice = core.TierChoice
	// TierResult pairs one tier candidate with its Table I results.
	TierResult = core.TierResult
)

// The four tier policies.
const (
	TierPMEMOnly        = workflow.TierPMEMOnly
	TierDRAMFirstSpill  = workflow.TierDRAMFirstSpill
	TierWriteStageDrain = workflow.TierWriteStageDrain
	TierHotPromote      = workflow.TierHotPromote
)

// ParseTierPolicy resolves a CLI/JSON tier policy name like
// "dram-first-spill".
func ParseTierPolicy(s string) (TierPolicy, error) { return workflow.ParseTierPolicy(s) }

// TierCandidates returns the tier policies RecommendTier explores, in
// search order (pmem-only first).
func TierCandidates() []TierSpec { return core.TierCandidates() }

// RecommendTier sweeps every tier candidate over the full Table I
// configuration space and returns the best combination; ties break
// toward pmem-only.
func RecommendTier(rt *Runner, wf Workflow) (TierChoice, error) { return core.RecommendTier(rt, wf) }

// ReadTierSpec decodes and validates a tier spec from JSON.
func ReadTierSpec(r io.Reader) (TierSpec, error) { return workflow.ReadTierSpec(r) }

// WriteTierSpec encodes a tier spec as JSON.
func WriteTierSpec(w io.Writer, t TierSpec) error { return workflow.WriteTierSpec(w, t) }

// General DAG workflows (beyond the paper's fixed pair): arbitrary
// acyclic graphs of stages connected by typed data edges, each edge
// lowering to the two-component kernel, with per-stage configuration
// tuning on the staged cost model.
type (
	// DAG is a general in-situ pipeline of named stages and data edges.
	DAG = workflow.DAGSpec
	// DAGStage is one stage: a component with its own rank count.
	DAGStage = workflow.StageSpec
	// DAGEdge is one typed data edge between stages.
	DAGEdge = workflow.EdgeSpec
	// StageConfig is one stage's tunable execution configuration.
	StageConfig = core.StageConfig
	// DAGAssignment assigns a StageConfig to every stage.
	DAGAssignment = core.DAGAssignment
	// DAGOptions parameterizes DAG prediction and tuning.
	DAGOptions = core.DAGOptions
	// DAGPrediction is the staged cost model's output.
	DAGPrediction = core.DAGPrediction
	// TunedDAG is TuneDAG's result.
	TunedDAG = core.TunedDAG
	// NamedEnv is a selectable software stack for DAG tuning.
	NamedEnv = core.NamedEnv
)

// ReadDAG decodes and validates a DAG workflow from JSON (see
// internal/workflow's documented schema; wfsched -dag uses this).
func ReadDAG(r io.Reader) (DAG, error) { return workflow.ReadDAGSpec(r) }

// WriteDAG encodes a DAG workflow as JSON.
func WriteDAG(w io.Writer, d DAG) error { return workflow.WriteDAGSpec(w, d) }

// WorkflowDAG lifts a two-component workflow into the equivalent
// two-stage DAG (the legacy bridge: compiling it back reproduces the
// original spec).
func WorkflowDAG(wf Workflow) DAG { return workflow.FromSpec(wf) }

// PredictDAG composes per-edge predicted runtimes along the DAG's
// critical path under one per-stage assignment.
func PredictDAG(rt *Runner, d DAG, asg DAGAssignment, opt DAGOptions) (DAGPrediction, error) {
	return core.PredictDAG(rt, d, asg, opt)
}

// TuneDAG searches per-stage rank × mode × placement × stack
// assignments under the options' budgets.
func TuneDAG(rt *Runner, d DAG, opt DAGOptions) (TunedDAG, error) {
	return core.TuneDAG(rt, d, opt)
}

// Execution environment and results.
type (
	// Env supplies the simulated platform and storage stack.
	Env = core.Env
	// Result is the measured outcome of one run.
	Result = core.Result
	// PhaseBreakdown is per-rank mean time by activity.
	PhaseBreakdown = core.PhaseBreakdown
)

// DefaultEnv returns the paper's evaluation environment: dual-socket
// 28-core Xeon, Gen-1 Optane per socket, NOVA as the transport.
func DefaultEnv() Env { return core.DefaultEnv() }

// Run executes a workflow under one configuration.
func Run(wf Workflow, cfg Config, env Env) (Result, error) { return core.Run(wf, cfg, env) }

// Tracer is the kernel stage-timeline collector (see RunWithTrace).
type Tracer = sim.Tracer

// RunWithTrace executes like Run and, when traced, also returns the
// kernel timeline (exportable to the Chrome trace viewer).
func RunWithTrace(wf Workflow, cfg Config, env Env, traced bool) (Result, *Tracer, error) {
	return core.RunWithTrace(wf, cfg, env, traced)
}

// RunAll executes a workflow under every configuration.
func RunAll(wf Workflow, env Env) ([]Result, error) { return core.RunAll(wf, env) }

// Concurrent memoizing run engine.
type (
	// Runner executes runs on a bounded worker pool with a
	// content-keyed result cache; identical runs are computed once.
	Runner = core.Runner
	// Job is one (workflow, deployment) execution for Runner.RunBatch.
	Job = core.Job
	// RunnerStats counts the engine's cache hits, misses and coalesced
	// in-flight joins.
	RunnerStats = core.RunnerStats
)

// NewRunner builds a run engine on env with the given worker count
// (<= 0 means GOMAXPROCS). All scheduling entry points are available
// as Runner methods — Run, RunAll, Oracle, AutoSchedule,
// ScheduleQueue, PlacementOracle — sharing one pool and one cache.
func NewRunner(env Env, workers int) *Runner { return core.NewRunner(env, workers) }

// ConfigJob builds the batch job for one Table I configuration.
func ConfigJob(wf Workflow, cfg Config) Job { return core.ConfigJob(wf, cfg) }

// Best returns the fastest result.
func Best(results []Result) Result { return core.Best(results) }

// Scheduling: classification, recommendation, oracle, auto-scheduling.
type (
	// Features is the Table II workflow characterization.
	Features = core.Features
	// Recommendation is the rule engine's output.
	Recommendation = core.Recommendation
	// RuleRow is one row of Table II.
	RuleRow = core.RuleRow
	// OracleDecision is the exhaustive-search answer.
	OracleDecision = core.OracleDecision
	// ScheduleOutcome is one end-to-end auto-scheduling decision.
	ScheduleOutcome = core.ScheduleOutcome
)

// TableII returns the paper's recommendation table as data: a fresh
// copy per call, so editing it cannot change Recommend.
func TableII() []RuleRow { return core.TableII() }

// Classify profiles a workflow's components standalone and buckets
// them into Table II's feature vocabulary.
func Classify(wf Workflow, env Env) (Features, error) { return core.Classify(wf, env) }

// Recommend applies the Table II rules to a feature tuple.
func Recommend(f Features) (Recommendation, error) { return core.Recommend(f) }

// RecommendWorkflow classifies and recommends in one step.
func RecommendWorkflow(wf Workflow, env Env) (Recommendation, error) {
	return core.RecommendWorkflow(wf, env)
}

// Oracle runs all four configurations and returns the best.
func Oracle(wf Workflow, env Env) (OracleDecision, error) { return core.Oracle(wf, env) }

// AutoSchedule profiles, classifies, recommends and executes; with
// verify it also reports the regret versus the oracle.
func AutoSchedule(wf Workflow, env Env, verify bool) (ScheduleOutcome, error) {
	return core.AutoSchedule(wf, env, verify)
}

// Batch scheduling.
type (
	// QueuePlan is a batch-scheduling outcome: per-workflow decisions,
	// makespan, and fixed-policy comparisons.
	QueuePlan = core.QueuePlan
	// QueueItem is one scheduled workflow within a plan.
	QueueItem = core.QueueItem
)

// ScheduleQueue plans and executes a queue of workflows, choosing each
// one's configuration from Table II, and compares the makespan against
// every fixed single-configuration policy.
func ScheduleQueue(queue []Workflow, env Env) (QueuePlan, error) {
	return core.ScheduleQueue(queue, env)
}

// Generalized placement (beyond the paper's two-socket Fig 2 space).
type (
	// Deployment places components and the PMEM channel on concrete
	// sockets.
	Deployment = core.Deployment
	// PlacementDecision is an exhaustive deployment-space search result.
	PlacementDecision = core.PlacementDecision
)

// RunDeployment executes a workflow under an explicit deployment.
func RunDeployment(wf Workflow, dep Deployment, env Env, traced bool) (Result, *Tracer, error) {
	return core.RunDeployment(wf, dep, env, traced)
}

// PlacementOracle searches every deployment of an N-socket machine. On
// a machine of identical sockets it simulates one deployment per orbit
// under socket relabelling (mode × channel locality, six orbits) and
// reports the same result for every deployment of the orbit, which is
// what the literal run returns; see Runner.RunDeployment.
func PlacementOracle(wf Workflow, env Env, sockets int) (PlacementDecision, error) {
	return core.PlacementOracle(wf, env, sockets)
}

// Workload suite (paper §IV).

// Suite returns all 18 evaluation workloads.
func Suite() []Workflow { return workloads.Suite() }

// MicroWorkflow builds the streaming microbenchmark (1 GiB per rank
// per iteration) with the given object size.
func MicroWorkflow(objBytes int64, ranks int) Workflow {
	return workloads.MicroWorkflow(objBytes, ranks)
}

// GTCReadOnly builds "GTC + Read only" (Fig 6).
func GTCReadOnly(ranks int) Workflow { return workloads.GTCReadOnly(ranks) }

// GTCMatrixMult builds "GTC + matrixmult" (Fig 7).
func GTCMatrixMult(ranks int) Workflow { return workloads.GTCMatrixMult(ranks) }

// MiniAMRReadOnly builds "miniAMR + Read only" (Fig 8).
func MiniAMRReadOnly(ranks int) Workflow { return workloads.MiniAMRReadOnly(ranks) }

// MiniAMRMatrixMult builds "miniAMR + matrixmult" (Fig 9).
func MiniAMRMatrixMult(ranks int) Workflow { return workloads.MiniAMRMatrixMult(ranks) }

// Microbenchmark object sizes (§IV-B).
const (
	MicroObjectSmall = workloads.MicroObjectSmall
	MicroObjectLarge = workloads.MicroObjectLarge
)

// Platform and device models (for custom environments and ablations).
type (
	// Machine is the simulated server.
	Machine = platform.Machine
	// DeviceModel is the PMEM calibration constant set.
	DeviceModel = pmem.Model
	// TopologyConfig parameterizes the NUMA layout.
	TopologyConfig = numa.Config
)

// Gen1Optane returns the calibrated first-generation Optane model.
func Gen1Optane() DeviceModel { return pmem.Gen1Optane() }

// TestbedConfig returns the paper's dual-socket topology.
func TestbedConfig() TopologyConfig { return numa.TestbedConfig() }

// NewMachine assembles a machine from a topology and device model.
func NewMachine(cfg TopologyConfig, model DeviceModel) *Machine {
	return platform.New(cfg, model)
}

// Experiments (one per paper table/figure). An Experiment's Run takes
// a *Runner; share one engine across experiments to reuse results.
type (
	// Experiment regenerates one paper artifact.
	Experiment = experiments.Experiment
	// ExperimentReport is an experiment's output and claim checks.
	ExperimentReport = experiments.Report
)

// Experiments returns every experiment in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks an experiment up ("fig4", "tab2", ...).
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }
