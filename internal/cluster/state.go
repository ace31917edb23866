package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
)

// The incremental cluster-state store behind the wfschedd daemon's
// placement API.
//
// Simulate consumes a whole trace and returns a report; a scheduling
// service instead accumulates state across many requests: nodes
// register one at a time, jobs are submitted whenever clients show up,
// and schedules are queried between submissions. State is that store:
// a second driver over the batch engine's event loop (engine.go), so
// it shares the NodeView capacity model, the pluggable policies, the
// memoized Estimator, the free-capacity index (grown in place as nodes
// register), the checks on policy output and, when enabled, the
// interference model. Jobs submitted for a later time park as arrival
// events. The virtual clock only moves through AdvanceTo, so the store
// stays fully deterministic: an identical call sequence produces
// identical placements, byte for byte.
//
// TestStateMatchesSimulate replays traces through both drivers and
// demands identical per-job placements and completion order. Two
// deliberate differences remain: a queue with no registered nodes
// waits instead of erroring (a service may see jobs before its fleet),
// and the store does not model node faults — its fleet is whatever
// registered, with no failure schedule over it.

// stateCandidateCap bounds the per-placement candidate list recorded
// for the decision API's filter phase; a thousand-node fleet should
// not echo a thousand IDs per placement.
const stateCandidateCap = 16

// JobPhase is a submitted job's lifecycle position.
type JobPhase string

const (
	// JobFuture jobs are submitted with an arrival the clock has not
	// reached yet (in a batch run, also a killed job waiting out its
	// retry backoff).
	JobFuture JobPhase = "future"
	// JobQueued jobs have arrived and wait for capacity.
	JobQueued JobPhase = "queued"
	// JobRunning jobs occupy cores on their node.
	JobRunning JobPhase = "running"
	// JobDone jobs have completed (or, in a batch run with faults,
	// permanently failed).
	JobDone JobPhase = "done"
)

// JobStatus is the externally visible record of one submitted job.
type JobStatus struct {
	ID             int
	Name           string
	Ranks          int
	Phase          JobPhase
	ArrivalSeconds float64
	// Node, Config, StartSeconds, EndSeconds and DurationSeconds are
	// meaningful once the job has started (Node is -1 before).
	Node            int
	Config          string
	StartSeconds    float64
	EndSeconds      float64
	DurationSeconds float64
	// WaitSeconds is start minus arrival once started.
	WaitSeconds float64
}

// Placed is one committed placement decision, with the filter-phase
// evidence the decision API reports: the nodes that had capacity when
// the pass started (capped at stateCandidateCap, ascending ID), in the
// spirit of the k8s extender's filter/prioritize split — Candidates is
// the filter output, Node the prioritized binding.
type Placed struct {
	JobID           int
	Node            int
	Config          core.Config
	StartSeconds    float64
	EndSeconds      float64
	DurationSeconds float64
	Candidates      []int
}

// Step reports what one Schedule or AdvanceTo call changed: placements
// committed and jobs completed, each in decision order.
type Step struct {
	Placed    []Placed
	Completed []JobStatus
}

// State is the incremental store. It is not safe for concurrent use;
// the daemon serializes access (one store mutation at a time is also
// what keeps the decision log reproducible).
type State struct {
	e   *engine
	now float64
	rec Step // what the Schedule or AdvanceTo call in progress changed
	// placedBy[i] is the job of rec.Placed[i]. Its EndSeconds is read
	// once the placing step returns: under interference the step's
	// closing reflow rates the newcomer after commit.
	placedBy []*jobState
	// retired holds the final status of every completed job, whose
	// engine state (spec, profile, reflow bookkeeping) is released at
	// completion, as the batch driver's SummaryOnly mode does. A daemon
	// that has served many jobs then keeps only these small records.
	retired map[int]JobStatus
}

// NewState builds a store over opt.Nodes nodes (0 for a store whose
// nodes register later through AddNode), with no jobs and the clock at
// zero. The store ignores the metrics-only FleetOptions and rejects a
// fault model.
func NewState(opt Options) (*State, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Faults.Enabled {
		return nil, fmt.Errorf("cluster: the placement store does not model node faults")
	}
	e, err := newEngine(opt)
	if err != nil {
		return nil, err
	}
	s := &State{e: e, retired: make(map[int]JobStatus)}
	e.finish = func(st *jobState) {
		js := s.status(st)
		s.rec.Completed = append(s.rec.Completed, js)
		s.retired[js.ID] = js
		e.states[js.ID] = nil
	}
	e.placed = func(st *jobState, pl Placement) {
		s.rec.Placed = append(s.rec.Placed, Placed{
			JobID:           pl.JobID,
			Node:            pl.Node,
			Config:          pl.Config,
			StartSeconds:    st.start,
			DurationSeconds: st.duration,
			// Read against the pre-commit index: the filter input of this
			// pass, before this placement consumes capacity.
			Candidates: s.candidates(st.job.Workflow.Ranks, stateCandidateCap),
		})
		s.placedBy = append(s.placedBy, st)
	}
	return s, nil
}

// Now returns the store's virtual clock.
func (s *State) Now() float64 { return s.now }

// CoresPerSocket returns the per-socket capacity of every node.
func (s *State) CoresPerSocket() int { return s.e.cores }

// PolicyName returns the configured policy's name.
func (s *State) PolicyName() string { return s.e.opt.Policy.Name() }

// AddNode registers one fresh node and returns its ID. Nodes are
// homogeneous (the store's CoresPerSocket); they join empty and
// immediately schedulable.
func (s *State) AddNode() int { return s.e.addNode() }

// Submit registers a job. An arrival before the current clock is
// clamped to it (an online service cannot accept work in the past);
// an arrival beyond it parks the job as an arrival event until
// AdvanceTo reaches it. The job is validated against the store's node
// shape, and a non-finite arrival is rejected.
func (s *State) Submit(wf workflow.Spec, arrival float64) (int, error) {
	if err := wf.Validate(); err != nil {
		return 0, err
	}
	if err := checkFiniteArrival(arrival); err != nil {
		return 0, fmt.Errorf("cluster: job %q: %w", wf.Name, err)
	}
	if arrival < s.now {
		arrival = s.now
	}
	j := Job{ID: len(s.e.states), Workflow: wf, ArrivalSeconds: arrival}
	if err := checkFits(j, s.e.cores, s.e.opt.DRAMBytesPerNode); err != nil {
		return 0, fmt.Errorf("cluster: job %q %w", wf.Name, err)
	}
	st := s.e.addJob(j)
	if arrival > s.now {
		s.e.events.add(event{at: arrival, kind: evArrive, job: j.ID})
	} else {
		st.phase = JobQueued
		s.e.pending = append(s.e.pending, j)
	}
	return j.ID, nil
}

// Job returns the status of a submitted job.
func (s *State) Job(id int) (JobStatus, bool) {
	if id < 0 || id >= len(s.e.states) {
		return JobStatus{}, false
	}
	if st := s.e.states[id]; st != nil {
		return s.status(st), true
	}
	return s.retired[id], true
}

func (s *State) status(st *jobState) JobStatus {
	js := JobStatus{
		ID:             st.job.ID,
		Name:           st.job.Workflow.Name,
		Ranks:          st.job.Workflow.Ranks,
		Phase:          st.phase,
		ArrivalSeconds: st.job.ArrivalSeconds,
		Node:           st.node,
		Config:         st.cfg,
	}
	if st.phase == JobRunning || st.phase == JobDone {
		js.StartSeconds = st.start
		js.EndSeconds = st.end
		js.DurationSeconds = st.duration
		js.WaitSeconds = st.start - st.job.ArrivalSeconds
	}
	return js
}

// candidates returns the nodes that currently have capacity for ranks
// cores, ascending ID, capped at limit: the filter-phase evidence each
// Placed carries.
func (s *State) candidates(ranks, limit int) []int {
	var out []int
	s.e.idx.eachFit(ranks, -1, func(id int) bool {
		out = append(out, id)
		return len(out) < limit
	})
	return out
}

// Schedule consults the policy at the current instant and runs the
// engine until the instant is quiescent (zero-duration placements
// complete and reschedule at the same instant), returning what
// changed. With no registered nodes the queue simply waits.
func (s *State) Schedule() (Step, error) {
	return s.run(s.now)
}

// ErrInvalidAdvance tags AdvanceTo targets the store must refuse:
// non-finite or backwards times. NaN in particular passes a plain
// backwards comparison (NaN < now is false) and would then be written
// into the clock, poisoning every later event comparison — so callers
// get an error they can map to a client fault (errors.Is).
var ErrInvalidAdvance = errors.New("invalid advance target")

// AdvanceTo moves the virtual clock to t: a Schedule at the current
// instant, then every event due by t in the engine's order
// (completions before arrivals at equal times, ties by job ID), with
// the policy consulted after every instant's events.
func (s *State) AdvanceTo(t float64) (Step, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return Step{}, fmt.Errorf("cluster: %w: non-finite time %g", ErrInvalidAdvance, t)
	}
	if t < s.now {
		return Step{}, fmt.Errorf("cluster: %w: cannot advance the clock backwards (now %g, asked %g)", ErrInvalidAdvance, s.now, t)
	}
	step, err := s.run(t)
	if err == nil {
		s.now = t
	}
	return step, err
}

// run forces one pass at the current instant, then steps the engine
// through every event due by until, and returns what changed.
func (s *State) run(until float64) (Step, error) {
	s.rec, s.placedBy = Step{}, s.placedBy[:0]
	err := s.step(true)
	for err == nil {
		ev, ok := s.e.events.peek()
		if !ok || ev.at > until {
			break
		}
		s.now = ev.at
		err = s.step(false)
	}
	step := s.rec
	s.rec = Step{}
	return step, err
}

// step runs one engine instant at the clock and stamps the end times
// of the jobs it placed.
func (s *State) step(force bool) error {
	from := len(s.rec.Placed)
	_, err := s.e.step(s.now, force)
	for i := from; i < len(s.rec.Placed); i++ {
		s.rec.Placed[i].EndSeconds = s.placedBy[i].end
	}
	return err
}

// NodeSnapshot is one node's state in a Snapshot.
type NodeSnapshot struct {
	ID      int
	Cores   int
	Free    int
	Running []NodeJob
}

// NodeJob is one resident job in a NodeSnapshot.
type NodeJob struct {
	JobID      int
	Ranks      int
	EndSeconds float64
}

// Snapshot is a point-in-time view of the whole store: the clock,
// every node with its residents, and the job population by phase.
type Snapshot struct {
	NowSeconds     float64
	Policy         string
	CoresPerSocket int
	Nodes          []NodeSnapshot
	// Queue lists arrived-but-waiting job IDs in queue order; Future
	// lists parked jobs in (arrival, ID) order.
	Queue     []int
	Future    []int
	Submitted int
	Running   int
	Completed int
}

// Snapshot captures the store's current state. The result shares
// nothing with the store, so the daemon can serialize it after
// releasing its lock.
func (s *State) Snapshot() Snapshot {
	e := s.e
	snap := Snapshot{
		NowSeconds:     s.now,
		Policy:         e.opt.Policy.Name(),
		CoresPerSocket: e.cores,
		Submitted:      len(e.states),
		Completed:      e.finished,
		Queue:          make([]int, 0, len(e.pending)),
	}
	for _, j := range e.pending {
		snap.Queue = append(snap.Queue, j.ID)
	}
	for _, ev := range e.events {
		if ev.kind == evArrive {
			snap.Future = append(snap.Future, ev.job)
		}
	}
	sort.Slice(snap.Future, func(a, b int) bool {
		x, y := e.states[snap.Future[a]].job, e.states[snap.Future[b]].job
		if x.ArrivalSeconds != y.ArrivalSeconds {
			return x.ArrivalSeconds < y.ArrivalSeconds
		}
		return x.ID < y.ID
	})
	for _, n := range e.nodes {
		ns := NodeSnapshot{ID: n.ID, Cores: n.Cores, Free: n.FreeAt(s.now)}
		for _, r := range n.Running {
			ns.Running = append(ns.Running, NodeJob{JobID: r.JobID, Ranks: r.Ranks, EndSeconds: r.EndSeconds})
		}
		snap.Running += len(n.Running)
		snap.Nodes = append(snap.Nodes, ns)
	}
	return snap
}
