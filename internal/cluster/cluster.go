package cluster

import (
	"fmt"
	"math"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
)

// Estimator supplies the scheduler's cost model: how long a workflow
// runs under a configuration, and which configuration Table II
// recommends for it. The production implementation wraps core.Runner,
// so repeated specs in a trace cost one simulation; tests substitute
// canned durations to craft queueing scenarios.
//
// The cluster model treats estimates as exact — the simulator that
// produces them is the same deterministic cost model the cluster is
// built on, so there is no estimate/actual gap (classic batch
// schedulers contend with user-provided walltime requests; modeling
// request error is future work).
type Estimator interface {
	// Estimate returns the workflow's end-to-end runtime in seconds
	// under the configuration, on a dedicated node.
	Estimate(wf workflow.Spec, cfg core.Config) (float64, error)
	// Recommend returns the Table II configuration for the workflow
	// (profiling + classification, memoized by the run engine).
	Recommend(wf workflow.Spec) (core.Config, error)
	// Profile returns the workflow's PMEM-demand profile under the
	// configuration, for the cross-job interference model. It shares
	// the memoized run behind Estimate, so profiling adds no cost.
	Profile(wf workflow.Spec, cfg core.Config) (JobProfile, error)
}

// runnerEstimator is the production Estimator: durations are memoized
// simulated executions and recommendations come from the paper's
// classify-then-match pipeline.
type runnerEstimator struct {
	rt *core.Runner
}

// NewEstimator builds the production estimator over a run engine. All
// nodes of a homogeneous cluster share the engine's cache, so a trace
// that repeats a spec simulates it once per configuration consulted.
func NewEstimator(rt *core.Runner) Estimator {
	return runnerEstimator{rt: rt}
}

func (e runnerEstimator) Estimate(wf workflow.Spec, cfg core.Config) (float64, error) {
	res, err := e.rt.Run(wf, cfg)
	if err != nil {
		return 0, err
	}
	return res.TotalSeconds, nil
}

func (e runnerEstimator) Recommend(wf workflow.Spec) (core.Config, error) {
	rec, err := e.rt.RecommendWorkflow(wf)
	if err != nil {
		return core.Config{}, err
	}
	return rec.Config, nil
}

func (e runnerEstimator) Profile(wf workflow.Spec, cfg core.Config) (JobProfile, error) {
	res, err := e.rt.Run(wf, cfg)
	if err != nil {
		return JobProfile{}, err
	}
	return profileFromResult(&wf, cfg, &res), nil
}

// RunningJob is one placed job occupying cores on a node.
type RunningJob struct {
	JobID      int
	Ranks      int
	EndSeconds float64
	// DRAMBytes is the node DRAM the job's tier policy holds resident
	// (workflow.Spec.TierDRAMBytes); zero for untiered jobs, which never
	// engage the DRAM capacity accounting.
	DRAMBytes float64
	// Profile is the job's PMEM demand for the interference model; the
	// zero value when the model is disabled.
	Profile JobProfile
}

// jobDRAMBytes returns the node DRAM the job holds resident under its
// workflow's tier policy (zero for pmem-only jobs).
func jobDRAMBytes(j *Job) float64 {
	if !j.Workflow.Tier.Enabled() {
		return 0 // what TierDRAMBytes reports, without copying the spec into its receiver
	}
	return float64(j.Workflow.TierDRAMBytes())
}

// NodeView is the scheduler-visible state of one node: a two-socket
// machine with Cores cores per socket. A job with R ranks occupies R
// cores on each socket (simulation ranks on one, analytics ranks on
// the other — the paper's Fig 2 deployment), so per-socket core
// capacity is the binding resource and co-resident jobs are disjoint
// core sets.
//
// Whether co-resident jobs interfere depends on Options.Interference:
// disabled, each job's duration is its standalone simulated runtime;
// enabled, jobs whose channels share a socket's PMEM dilate each
// other's I/O when their combined demand exceeds the socket's
// bandwidth budget (see interference.go), and EndSeconds values are
// the engine's current completion estimates, re-evaluated at every
// residency change.
type NodeView struct {
	ID int
	// Cores is the capacity of each of the node's two sockets.
	Cores int
	// DRAMBytes is the node's DRAM capacity available to tiered jobs
	// (Options.DRAMBytesPerNode). Zero means DRAM is not modeled as a
	// schedulable resource and tiered jobs place without a capacity
	// check, preserving the pre-tier engine's behavior byte for byte.
	DRAMBytes float64
	// Running lists resident jobs in placement order (deterministic:
	// commit order, which the engine fixes).
	Running []RunningJob
	// Down marks a failed node (fault model only): it holds no jobs and
	// accepts no placements until UpSeconds, its already-known repair
	// time (drawn or scheduled when the failure fired).
	Down      bool
	UpSeconds float64
}

// FreeAt returns the cores free on each socket at time t, assuming no
// further placements: jobs whose end is after t still hold their cores.
// A down node has no capacity before its repair time.
func (n *NodeView) FreeAt(t float64) int {
	if n.Down && t < n.UpSeconds {
		return 0
	}
	free := n.Cores
	for _, r := range n.Running {
		if r.EndSeconds > t {
			free -= r.Ranks
		}
	}
	return free
}

// DRAMFreeAt returns the DRAM bytes free at time t under the same
// convention as FreeAt: residents ending after t still hold their
// reservation, and a down node has no capacity before its repair.
func (n *NodeView) DRAMFreeAt(t float64) float64 {
	if n.Down && t < n.UpSeconds {
		return 0
	}
	free := n.DRAMBytes
	for _, r := range n.Running {
		if r.EndSeconds > t {
			free -= r.DRAMBytes
		}
	}
	return free
}

// fitsAt reports whether ranks cores and dram bytes are both free at
// time t. A zero dram demand or an unmodeled DRAM capacity skips the
// DRAM side, so untiered jobs and untiered clusters see exactly the
// core-only check.
func (n *NodeView) fitsAt(t float64, ranks int, dram float64) bool {
	if n.FreeAt(t) < ranks {
		return false
	}
	return dram <= 0 || n.DRAMBytes <= 0 || n.DRAMFreeAt(t) >= dram
}

// EarliestFit returns the earliest time >= now at which ranks cores —
// and, for a job holding dram bytes of node DRAM resident, that much
// DRAM — are free, given the current residents and no further
// placements. A zero dram demand, or a node whose DRAM is unmodeled,
// reduces to the core-only check.
func (n *NodeView) EarliestFit(now float64, ranks int, dram float64) float64 {
	if ranks > n.Cores || (dram > 0 && n.DRAMBytes > 0 && dram > n.DRAMBytes) {
		return inf()
	}
	if n.Down {
		// A down node is empty (the failure killed its residents), so it
		// fits any legal job the moment it comes back.
		if up := n.UpSeconds; up > now {
			return up
		}
		return now
	}
	if n.fitsAt(now, ranks, dram) {
		return now
	}
	// Capacity frees only at completion instants; scan them in time
	// order. Running is small (<= Cores jobs), so the quadratic scan is
	// fine.
	best := inf()
	for _, r := range n.Running {
		if r.EndSeconds > now && r.EndSeconds < best && n.fitsAt(r.EndSeconds, ranks, dram) {
			best = r.EndSeconds
		}
	}
	return best
}

// place adds a resident job to the view (used by policies to track
// their own tentative placements within one scheduling pass, and by
// the engine to commit them).
func (n *NodeView) place(jobID, ranks int, end float64, dram float64, prof JobProfile) {
	n.Running = append(n.Running, RunningJob{JobID: jobID, Ranks: ranks, EndSeconds: end, DRAMBytes: dram, Profile: prof})
}

// remove drops a resident job (completion) and reports whether it was
// found. A missing resident means the engine's accounting is broken —
// a double completion, or a completion racing a kill that should have
// staled it — so the engine treats false as a hard error instead of
// silently continuing (it used to no-op, which let such bugs pass
// unnoticed).
func (n *NodeView) remove(jobID int) bool {
	for i, r := range n.Running {
		if r.JobID == jobID {
			n.Running = append(n.Running[:i], n.Running[i+1:]...)
			return true
		}
	}
	return false
}

// noFitSeconds is the sentinel EarliestFit returns when the requested
// capacity can never be free: far beyond any schedulable time, yet
// still JSON-encodable. It is a guarded sentinel — callers must check
// isNoFit before doing arithmetic on an EarliestFit result or
// serializing it, because sums or products of values this large
// overflow to +Inf, which json.Encoder rejects outright (the engine's
// retry path hit exactly that: a backoff offset added to a huge
// requeue time produced a +Inf arrival and broke the report export).
//
//pmemlint:ignore unitsafety sentinel magnitude, not a duration; any unit factor would change the overflow guard
const noFitSeconds = 1e308

// isNoFit reports whether t is the no-fit sentinel (or anything
// beyond it, such as an overflow to +Inf).
func isNoFit(t float64) bool {
	return t >= noFitSeconds
}

func inf() float64 {
	return noFitSeconds
}

// Placement is one scheduling decision: start the job on the node under
// the configuration, now.
type Placement struct {
	JobID  int
	Node   int
	Config core.Config
}

// SchedContext is what a policy sees at a scheduling point: the virtual
// time, the pending queue in arrival order, a mutable snapshot of the
// nodes (policies record tentative placements on it so capacity
// accounting stays correct across multiple placements in one pass),
// the cost model, and the interference model in force (zero when
// disabled). The engine reuses the context, its Queue, its node clones
// and the built-in policies' placement buffer from pass to pass, so
// nothing a pass hands out may be kept past its Schedule call.
type SchedContext struct {
	Now   float64
	Queue []Job
	Nodes []*NodeView
	Est   Estimator
	Model Interference
	// avoid[jobID] is the node whose failure killed the job's latest
	// attempt (-1 otherwise), cleared once the job starts again. Down
	// nodes have no capacity at all; the failure-aware policy variants
	// additionally use this to steer a retried job away from its failed
	// node when it is freshly repaired and other nodes fit.
	avoid []int

	// idx is the engine's bucketed free-capacity view (nil in
	// hand-built contexts, where queries fall back to scanning Nodes).
	// Tentative placements update it through a journal the engine rolls
	// back after the pass.
	idx *freeIndex
	// owned implements copy-on-write: when non-nil, Nodes aliases the
	// engine's authoritative views and the first mutation of a node
	// clones it into the slice (owned[i] marks clones). Policies must
	// mutate nodes only through Place. When nil (hand-built contexts),
	// Nodes is private to the caller and is mutated directly.
	owned []bool
	// cloned lists the node IDs cloned this pass, in clone order: the
	// engine restores exactly these view entries and owned marks after
	// the pass, so a pass costs what it touched, not the fleet size.
	cloned []int
	// clones holds one clone per node, reused across passes: a clone's
	// resident buffer keeps its capacity, so cloning allocates only
	// when a node holds more residents than it ever has.
	clones []NodeView
	// placed is the engine's reusable placement buffer; the built-in
	// policies append to it and hand the grown buffer back.
	placed []Placement
	// ephemeral counts zero-duration placements made this pass. The
	// index tracks structural occupancy (residents hold cores until
	// their end time), but a zero-duration resident ends at Now and so
	// holds nothing under FreeAt(Now) — the index cannot represent it,
	// so once one exists the pass's remaining queries fall back to the
	// linear scan, which reads the authoritative semantics.
	ephemeral int
	// residentsRegular vouches that every resident profile on Nodes has
	// finite, non-negative demands, so no node scores below a job's
	// overload on an idle socket (the aware pick's early exit). The
	// engine sets it until an irregular profile is committed, Place
	// clears it when one is placed, and hand-built contexts leave it
	// false, keeping the full scan.
	residentsRegular bool
}

// node returns a mutable view of the node, cloning it first under
// copy-on-write so the engine's authoritative state stays untouched.
// The clone lives in the node's reusable slot and is recorded in
// cloned for the engine's restore.
func (c *SchedContext) node(id int) *NodeView {
	if c.owned == nil || c.owned[id] {
		return c.Nodes[id]
	}
	n, cl := c.Nodes[id], &c.clones[id]
	*cl = NodeView{ID: n.ID, Cores: n.Cores, DRAMBytes: n.DRAMBytes, Running: append(cl.Running[:0], n.Running...),
		Down: n.Down, UpSeconds: n.UpSeconds}
	c.Nodes[id] = cl
	c.owned[id] = true
	c.cloned = append(c.cloned, id)
	return cl
}

// indexed reports whether the free-capacity index can answer queries
// for this pass (it cannot once a zero-duration placement exists; see
// ephemeral).
func (c *SchedContext) indexed() bool { return c.idx != nil && c.ephemeral == 0 }

// AvoidNode returns the node whose failure killed the job's latest
// attempt (until the job starts again), or -1. The failure-aware
// policies treat it as a soft constraint: the job still goes there
// when no other node fits.
func (c *SchedContext) AvoidNode(jobID int) int {
	if c.avoid == nil || jobID < 0 || jobID >= len(c.avoid) {
		return -1
	}
	return c.avoid[jobID]
}

// Fits returns the lowest-ID node with enough free cores for ranks at
// the current time, or -1. With the index available this is a bitset
// probe instead of an all-nodes scan; the answers are identical
// because a down node indexes as zero free cores and every resident's
// end time is after Now (zero-duration residents force the fallback;
// see ephemeral).
func (c *SchedContext) Fits(ranks int) int {
	if c.indexed() {
		return c.idx.firstFit(ranks)
	}
	return c.fitsLinear(ranks, -1)
}

// fitsExcept is Fits skipping one node ID (the failure-aware policies'
// soft avoid constraint); skip < 0 skips nothing.
func (c *SchedContext) fitsExcept(ranks, skip int) int {
	if c.indexed() {
		return c.idx.firstFitExcept(ranks, skip)
	}
	return c.fitsLinear(ranks, skip)
}

func (c *SchedContext) fitsLinear(ranks, skip int) int {
	for _, n := range c.Nodes {
		if n.ID != skip && n.FreeAt(c.Now) >= ranks {
			return n.ID
		}
	}
	return -1
}

// eachFit calls yield for every node with room for ranks at the
// current time in ascending ID order, skipping node ID skip (skip < 0
// skips nothing); yield returning false stops the walk.
func (c *SchedContext) eachFit(ranks, skip int, yield func(n *NodeView) bool) {
	if c.indexed() {
		c.idx.eachFit(ranks, skip, func(id int) bool {
			return yield(c.Nodes[id])
		})
		return
	}
	for _, n := range c.Nodes {
		if n.ID == skip || n.FreeAt(c.Now) < ranks {
			continue
		}
		if !yield(n) {
			return
		}
	}
}

// FitsJob is Fits for a concrete job: identical for untiered jobs, and
// for jobs whose tier policy holds node DRAM resident it additionally
// requires the DRAM demand to fit. The free-capacity index knows only
// cores, so DRAM-demanding jobs always take the linear scan — exact,
// just not O(1).
func (c *SchedContext) FitsJob(j Job) int {
	return c.fitsExceptJob(&j, -1)
}

// fitsExceptJob is FitsJob skipping one node ID; skip < 0 skips
// nothing.
func (c *SchedContext) fitsExceptJob(j *Job, skip int) int {
	dram := jobDRAMBytes(j)
	if dram <= 0 {
		return c.fitsExcept(j.Workflow.Ranks, skip)
	}
	for _, n := range c.Nodes {
		if n.ID != skip && n.fitsAt(c.Now, j.Workflow.Ranks, dram) {
			return n.ID
		}
	}
	return -1
}

// eachFitJob is eachFit for a concrete job, adding the DRAM demand
// check for tiered jobs.
func (c *SchedContext) eachFitJob(j *Job, skip int, yield func(n *NodeView) bool) {
	dram := jobDRAMBytes(j)
	if dram <= 0 {
		c.eachFit(j.Workflow.Ranks, skip, yield)
		return
	}
	for _, n := range c.Nodes {
		if n.ID == skip || !n.fitsAt(c.Now, j.Workflow.Ranks, dram) {
			continue
		}
		if !yield(n) {
			return
		}
	}
}

// EarliestFitJob is EarliestFit for a concrete job, honoring its DRAM
// demand alongside its core count.
func (c *SchedContext) EarliestFitJob(j Job) (float64, int) {
	return c.earliestFit(j.Workflow.Ranks, jobDRAMBytes(&j))
}

// EarliestFit returns the earliest (time, node) at which ranks cores
// become free on some node, ties resolved to the lower node ID. When
// something fits right now the index answers directly; the full scan
// over resident end times runs only for a saturated cluster, where it
// is unavoidable.
func (c *SchedContext) EarliestFit(ranks int) (float64, int) {
	return c.earliestFit(ranks, 0)
}

// earliestFit is EarliestFit with a DRAM demand; the index knows only
// cores, so a DRAM-demanding query always scans.
func (c *SchedContext) earliestFit(ranks int, dram float64) (float64, int) {
	if dram <= 0 && c.indexed() {
		if id := c.idx.firstFit(ranks); id >= 0 {
			return c.Now, id
		}
	}
	best, bestNode := inf(), -1
	for _, n := range c.Nodes {
		if t := n.EarliestFit(c.Now, ranks, dram); t < best {
			best, bestNode = t, n.ID
		}
	}
	return best, bestNode
}

// Place records a tentative placement on the snapshot and returns it.
// The engine later commits the returned placements in order. The
// profile (zero when the interference model is off) keeps the
// snapshot's demand accounting correct across multiple placements in
// one pass.
func (c *SchedContext) Place(job Job, node int, cfg core.Config, duration float64, prof JobProfile) Placement {
	return c.place(&job, node, cfg, duration, prof)
}

// place is Place reading the job through a pointer.
func (c *SchedContext) place(job *Job, node int, cfg core.Config, duration float64, prof JobProfile) Placement {
	c.node(node).place(job.ID, job.Workflow.Ranks, c.Now+duration, jobDRAMBytes(job), prof)
	if !prof.regularDemand() {
		c.residentsRegular = false
	}
	if c.idx != nil {
		if duration > 0 {
			c.idx.place(node, job.Workflow.Ranks)
		} else {
			// A zero-duration resident holds no cores at Now, which the
			// structural index cannot express: answer the rest of the pass
			// from the snapshot instead.
			c.ephemeral++
		}
	}
	return Placement{JobID: job.ID, Node: node, Config: cfg}
}

// Options configures a cluster simulation.
type Options struct {
	// Nodes is the cluster size; every node is one instance of the run
	// engine's environment (two sockets, per-socket PMEM).
	Nodes int
	// Policy decides placements; see FCFS, EASY, PMEMAware.
	Policy Policy
	// Estimator is the cost model. Typically NewEstimator(runner).
	Estimator Estimator
	// CoresPerSocket overrides the per-socket core capacity of each
	// node; 0 derives it from the environment's machine (the testbed's
	// 28).
	CoresPerSocket int
	// DRAMBytesPerNode is each node's DRAM capacity available to tiered
	// jobs. 0 (the default) leaves DRAM unmodeled as a schedulable
	// resource: tiered jobs place without a capacity check and the
	// engine's output is byte-identical to the pre-tier semantics.
	DRAMBytesPerNode float64
	// Interference is the cross-job PMEM contention model. The zero
	// value disables it and the engine's output is byte-identical to
	// the fixed-duration semantics; see DefaultInterference.
	Interference Interference
	// Faults is the node failure/recovery model. The zero value
	// disables it and the engine's output is byte-identical to the
	// fault-free semantics; see RandomFaults and ScheduledFaults.
	Faults FaultModel
	// Retry governs killed jobs when Faults is enabled: requeue with
	// exponential backoff, bounded attempts, optional
	// checkpoint-restart. The zero value selects DefaultRetry().
	Retry RetryPolicy
	// Fleet holds the opt-in fleet-scale trade-offs. The zero value
	// changes nothing; see FleetOptions.
	Fleet FleetOptions
}

// FleetOptions are the engine trade-offs for fleet-scale traces (1k
// nodes, 1M jobs). Unlike the free-capacity index and the socket-local
// reflow — always on, exactly equivalent — SummaryOnly changes
// observable output in a bounded, documented way, so it defaults off
// and golden-pinned small-trace runs stay byte-identical.
type FleetOptions struct {
	// SummaryOnly folds each job into the summary aggregates the moment
	// it finishes and keeps no per-job records and no utilization
	// series — constant memory regardless of trace length. Jobs
	// aggregate in completion order rather than trace order, so summary
	// sums may differ from the recorded mode in the last ulp.
	SummaryOnly bool
}

func (o Options) validate() error {
	if o.Nodes < 0 {
		return fmt.Errorf("cluster: negative node count %d", o.Nodes)
	}
	if o.Policy == nil {
		return fmt.Errorf("cluster: no scheduling policy")
	}
	if o.Estimator == nil {
		return fmt.Errorf("cluster: no estimator")
	}
	if o.CoresPerSocket < 0 {
		return fmt.Errorf("cluster: negative cores per socket")
	}
	if !(o.DRAMBytesPerNode >= 0) || math.IsInf(o.DRAMBytesPerNode, 0) {
		return fmt.Errorf("cluster: node DRAM capacity %g must be finite and non-negative", o.DRAMBytesPerNode)
	}
	if err := o.Faults.validate(o.Nodes); err != nil {
		return err
	}
	if err := o.retry().validate(); err != nil {
		return err
	}
	return o.Interference.validate()
}

// retry resolves the effective retry policy: the zero value selects
// the default. Always valid to call; only consulted when faults are
// enabled.
func (o Options) retry() RetryPolicy {
	if o.Retry == (RetryPolicy{}) {
		return DefaultRetry()
	}
	return o.Retry
}
