// Package cluster implements an online multi-node workflow scheduler
// on top of the paper's single-node cost model: a Cluster of N nodes
// (each node one core.Env instance with its two-socket PMEM topology),
// a stream of jobs arriving over virtual time, and an event-driven
// scheduling loop that consults a pluggable Policy at every arrival and
// completion. This is the "future workflow schedulers" scenario the
// paper's conclusions address, upgraded from core.ScheduleQueue's
// static batch plan to an online simulation with queueing metrics
// (wait, turnaround, bounded slowdown, per-node utilization).
//
// Everything is deterministic: the virtual clock advances only through
// the event heap, job durations come from the memoized run engine
// (core.Runner), and trace synthesis draws from an injected seeded
// generator — equal seeds and configurations produce byte-identical
// traces and reports.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// Job is one unit of the arrival stream: a workflow submitted to the
// cluster at a point in virtual time.
type Job struct {
	// ID is the job's position in the trace (assigned on load/synthesis);
	// metrics and placements refer to jobs by it.
	ID int
	// Workflow is the job's workload. The scheduler may run it under any
	// Table I configuration; it always occupies Workflow.Ranks cores on
	// each socket of its node for the duration. For DAG jobs it is the
	// DAG's envelope (workflow.DAGSpec.Envelope): same name, ranks equal
	// to the widest stage — the capacity and metrics surface.
	Workflow workflow.Spec
	// DAG is set for general in-situ pipeline jobs: duration estimation
	// routes to the staged cost model (see DAGEstimator) instead of the
	// envelope. Nil for the paper's pair jobs.
	DAG *workflow.DAGSpec
	// ArrivalSeconds is the submission time on the virtual clock.
	ArrivalSeconds float64
}

// Trace is a job stream sorted by arrival time.
type Trace struct {
	Jobs []Job
}

// Validate reports whether the trace is well-formed: non-empty, valid
// workflows, finite non-negative arrivals in non-decreasing order, and
// job IDs equal to their positions. The engine indexes its per-job
// state by ID, so a hand-assembled trace with duplicate or
// non-contiguous IDs would otherwise panic or silently merge two jobs'
// state.
func (t Trace) Validate() error {
	if len(t.Jobs) == 0 {
		return fmt.Errorf("cluster: empty trace")
	}
	prev := 0.0
	for i, j := range t.Jobs {
		if j.ID != i {
			return fmt.Errorf("cluster: trace job at position %d has ID %d (IDs must equal trace positions)", i, j.ID)
		}
		if err := validateJob(j); err != nil {
			return fmt.Errorf("cluster: trace job %d: %w", i, err)
		}
		if j.ArrivalSeconds < prev {
			return fmt.Errorf("cluster: trace job %d: arrival %g before job %d's %g (trace must be sorted)",
				i, j.ArrivalSeconds, i-1, prev)
		}
		prev = j.ArrivalSeconds
	}
	return nil
}

// checkArrival is the arrival rule of batch intake (Trace.Validate
// and streaming sources, through validateJob): finite, then
// non-negative.
func checkArrival(at float64) error {
	if err := checkFiniteArrival(at); err != nil {
		return err
	}
	if at < 0 {
		return fmt.Errorf("negative arrival %g", at)
	}
	return nil
}

// checkFiniteArrival is the part of the arrival rule every intake
// shares, State.Submit included (the store then clamps a past arrival
// to its clock instead of rejecting it). A NaN event never equals the
// clock, so it never drains and the loop spins; an infinite one never
// comes due.
func checkFiniteArrival(at float64) error {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("non-finite arrival %g", at)
	}
	return nil
}

// The JSON form of a trace: a job list whose workflow entries use the
// same schema as cmd/wfrun's -spec files (workflow.ReadSpec). A job
// may instead carry a "dag" entry (workflow.ReadDAGSpec's schema) —
// exactly one of the two per job.
//
//	{
//	  "jobs": [
//	    {"arrival_seconds": 0, "workflow": {"name": "...", ...}},
//	    {"arrival_seconds": 12.5, "dag": {"name": "...", "stages": [...], "edges": [...]}}
//	  ]
//	}
type traceJSON struct {
	Jobs []traceJobJSON `json:"jobs"`
}

type traceJobJSON struct {
	ArrivalSeconds float64         `json:"arrival_seconds"`
	Workflow       json.RawMessage `json:"workflow,omitempty"`
	DAG            json.RawMessage `json:"dag,omitempty"`
}

// decodeTraceJob lowers one wire job to the Job model (IDs are
// assigned by the caller).
func decodeTraceJob(jj traceJobJSON) (Job, error) {
	switch {
	case len(jj.Workflow) > 0 && len(jj.DAG) > 0:
		return Job{}, fmt.Errorf("has both workflow and dag entries (want exactly one)")
	case len(jj.DAG) > 0:
		d, err := workflow.ReadDAGSpec(bytes.NewReader(jj.DAG))
		if err != nil {
			return Job{}, err
		}
		return Job{Workflow: d.Envelope(), DAG: &d, ArrivalSeconds: jj.ArrivalSeconds}, nil
	case len(jj.Workflow) > 0:
		wf, err := workflow.ReadSpec(bytes.NewReader(jj.Workflow))
		if err != nil {
			return Job{}, err
		}
		return Job{Workflow: wf, ArrivalSeconds: jj.ArrivalSeconds}, nil
	}
	return Job{}, fmt.Errorf("has neither workflow nor dag entry")
}

// ReadTrace decodes and validates a job trace from JSON. Jobs are
// sorted by arrival time (stably, preserving file order among equal
// arrivals) and numbered in that order.
func ReadTrace(r io.Reader) (Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tj traceJSON
	if err := dec.Decode(&tj); err != nil {
		return Trace{}, fmt.Errorf("cluster: decoding trace: %w", err)
	}
	var tr Trace
	for i, jj := range tj.Jobs {
		j, err := decodeTraceJob(jj)
		if err != nil {
			return Trace{}, fmt.Errorf("cluster: trace job %d: %w", i, err)
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	sort.SliceStable(tr.Jobs, func(a, b int) bool {
		return tr.Jobs[a].ArrivalSeconds < tr.Jobs[b].ArrivalSeconds
	})
	for i := range tr.Jobs {
		tr.Jobs[i].ID = i
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// WriteTrace encodes the trace as JSON, the inverse of ReadTrace.
func WriteTrace(w io.Writer, tr Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	var tj traceJSON
	for _, j := range tr.Jobs {
		jj := traceJobJSON{ArrivalSeconds: j.ArrivalSeconds}
		var buf bytes.Buffer
		if j.DAG != nil {
			if err := workflow.WriteDAGSpec(&buf, *j.DAG); err != nil {
				return fmt.Errorf("cluster: trace job %d: %w", j.ID, err)
			}
			jj.DAG = json.RawMessage(buf.Bytes())
		} else {
			if err := workflow.WriteSpec(&buf, j.Workflow); err != nil {
				return fmt.Errorf("cluster: trace job %d: %w", j.ID, err)
			}
			jj.Workflow = json.RawMessage(buf.Bytes())
		}
		tj.Jobs = append(tj.Jobs, jj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tj)
}

// TraceSource streams a job trace in arrival order, one job per Next
// call, so the engine (SimulateStream) never needs the whole trace in
// memory. Next returns ok == false once the stream is exhausted.
// Implementations must yield jobs with IDs equal to their stream
// positions and non-decreasing, finite, non-negative arrivals — the
// engine re-validates as it pulls and fails fast on a malformed stream.
type TraceSource interface {
	Next() (job Job, ok bool, err error)
}

// Source returns a TraceSource over the in-memory trace, for running a
// materialized trace through the streaming engine.
func (t Trace) Source() TraceSource { return &traceSliceSource{jobs: t.Jobs} }

type traceSliceSource struct {
	jobs []Job
	i    int
}

func (s *traceSliceSource) Next() (Job, bool, error) {
	if s.i >= len(s.jobs) {
		return Job{}, false, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, true, nil
}

// StreamTrace decodes the ReadTrace JSON schema incrementally: one job
// is decoded per Next call, so a million-job trace file streams
// through constant memory. Unlike ReadTrace it cannot sort, so the
// file must already be in arrival order (jobs are numbered as they
// stream; an out-of-order arrival surfaces as an engine validation
// error).
func StreamTrace(r io.Reader) TraceSource {
	return &jsonTraceSource{dec: json.NewDecoder(r)}
}

type jsonTraceSource struct {
	dec     *json.Decoder
	started bool // consumed the opening {"jobs": [
	id      int
}

// start consumes tokens up to the first element of the jobs array.
func (s *jsonTraceSource) start() error {
	if tok, err := s.dec.Token(); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	} else if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("decoding trace: want top-level object, got %v", tok)
	}
	if tok, err := s.dec.Token(); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	} else if key, ok := tok.(string); !ok || key != "jobs" {
		return fmt.Errorf("decoding trace: want %q key, got %v", "jobs", tok)
	}
	if tok, err := s.dec.Token(); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	} else if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("decoding trace: want job array, got %v", tok)
	}
	s.started = true
	return nil
}

func (s *jsonTraceSource) Next() (Job, bool, error) {
	if !s.started {
		if err := s.start(); err != nil {
			return Job{}, false, err
		}
	}
	if !s.dec.More() {
		return Job{}, false, nil
	}
	var jj traceJobJSON
	if err := s.dec.Decode(&jj); err != nil {
		return Job{}, false, fmt.Errorf("decoding trace: %w", err)
	}
	j, err := decodeTraceJob(jj)
	if err != nil {
		return Job{}, false, fmt.Errorf("decoding trace job %d: %w", s.id, err)
	}
	j.ID = s.id
	s.id++
	return j, true, nil
}

// SyntheticConfig parameterizes the seeded trace generator.
type SyntheticConfig struct {
	// Jobs is the number of jobs to synthesize.
	Jobs int
	// MeanInterarrivalSeconds is the mean of the exponential
	// inter-arrival distribution (a Poisson arrival process, the
	// standard open-system load model).
	MeanInterarrivalSeconds float64
	// Seed seeds the generator; equal seeds and configs produce
	// byte-identical traces.
	Seed int64
}

// Synthetic draws a job trace from the catalog: workloads are sampled
// uniformly and arrivals follow a Poisson process. All randomness comes
// from the config's seed — never from the global source — so the
// generator is reproducible.
func Synthetic(catalog []workflow.Spec, cfg SyntheticConfig) (Trace, error) {
	if len(catalog) == 0 {
		return Trace{}, fmt.Errorf("cluster: empty workload catalog")
	}
	if cfg.Jobs <= 0 {
		return Trace{}, fmt.Errorf("cluster: synthetic trace needs a positive job count (got %d)", cfg.Jobs)
	}
	if cfg.MeanInterarrivalSeconds <= 0 {
		return Trace{}, fmt.Errorf("cluster: synthetic trace needs a positive mean inter-arrival (got %g)", cfg.MeanInterarrivalSeconds)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var tr Trace
	at := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		tr.Jobs = append(tr.Jobs, Job{
			ID:             i,
			Workflow:       catalog[rng.Intn(len(catalog))],
			ArrivalSeconds: at,
		})
		at += rng.ExpFloat64() * cfg.MeanInterarrivalSeconds
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// SyntheticSource is Synthetic as a stream: it draws the same jobs in
// the same order from the same seed (draw-for-draw identical, so a
// SyntheticSource run reproduces a Synthetic run byte for byte) but
// materializes one job at a time, which is what makes million-job
// fleet benchmarks fit in memory.
func SyntheticSource(catalog []workflow.Spec, cfg SyntheticConfig) (TraceSource, error) {
	if len(catalog) == 0 {
		return nil, fmt.Errorf("cluster: empty workload catalog")
	}
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("cluster: synthetic trace needs a positive job count (got %d)", cfg.Jobs)
	}
	if cfg.MeanInterarrivalSeconds <= 0 {
		return nil, fmt.Errorf("cluster: synthetic trace needs a positive mean inter-arrival (got %g)", cfg.MeanInterarrivalSeconds)
	}
	return &synthSource{
		catalog:   catalog,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		remaining: cfg.Jobs,
		mean:      cfg.MeanInterarrivalSeconds,
	}, nil
}

type synthSource struct {
	catalog   []workflow.Spec
	rng       *rand.Rand
	remaining int
	mean      float64
	id        int
	at        float64
}

func (s *synthSource) Next() (Job, bool, error) {
	if s.remaining == 0 {
		return Job{}, false, nil
	}
	j := Job{ID: s.id, Workflow: s.catalog[s.rng.Intn(len(s.catalog))], ArrivalSeconds: s.at}
	s.at += s.rng.ExpFloat64() * s.mean
	s.id++
	s.remaining--
	return j, true, nil
}

// SuiteTrace is the bundled 18-workload arrival trace: every workflow
// of the paper's evaluation suite (§IV-C) exactly once, in a seeded
// random submission order, with Poisson arrivals. It is the workload
// behind the online-scheduling experiment and the wfsched CLI's
// default.
func SuiteTrace(seed int64, meanInterarrivalSeconds float64) (Trace, error) {
	if meanInterarrivalSeconds <= 0 {
		return Trace{}, fmt.Errorf("cluster: suite trace needs a positive mean inter-arrival (got %g)", meanInterarrivalSeconds)
	}
	suite := workloads.Suite()
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	at := 0.0
	for i, idx := range rng.Perm(len(suite)) {
		tr.Jobs = append(tr.Jobs, Job{ID: i, Workflow: suite[idx], ArrivalSeconds: at})
		at += rng.ExpFloat64() * meanInterarrivalSeconds
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}
