package cluster

import (
	"encoding/json"
	"fmt"
	"io"

	"pmemsched/internal/trace"
	"pmemsched/internal/units"
)

// DefaultSlowdownBoundSeconds is the conventional bounded-slowdown
// runtime floor (Feitelson's tau = 10s): shorter jobs do not inflate
// the slowdown metric just by being short.
const DefaultSlowdownBoundSeconds = 10 * units.Second

// JobRecord is the per-job outcome of a cluster simulation.
type JobRecord struct {
	ID                int     `json:"id"`
	Workflow          string  `json:"workflow"`
	Ranks             int     `json:"ranks"`
	Node              int     `json:"node"`
	Config            string  `json:"config"`
	ArrivalSeconds    float64 `json:"arrival_seconds"`
	StartSeconds      float64 `json:"start_seconds"`
	EndSeconds        float64 `json:"end_seconds"`
	RunSeconds        float64 `json:"run_seconds"`
	WaitSeconds       float64 `json:"wait_seconds"`
	TurnaroundSeconds float64 `json:"turnaround_seconds"`
	BoundedSlowdown   float64 `json:"bounded_slowdown"`
	// StandaloneSeconds and Stretch report cross-job interference: the
	// job's dedicated-node runtime and actual-over-standalone dilation
	// (>= 1). Populated only when the interference or fault model is
	// enabled (Stretch: interference only), so plain reports keep their
	// original byte-exact shape.
	StandaloneSeconds float64 `json:"standalone_seconds,omitempty"`
	Stretch           float64 `json:"stretch,omitempty"`
	// Fault-model fields, populated only when failures are enabled:
	// how many times the job started, the standalone-seconds of work
	// lost to kills (beyond checkpoint credit), and whether the job
	// exhausted its retry budget. For a failed job, StartSeconds,
	// EndSeconds and RunSeconds describe its final attempt.
	Attempts                int     `json:"attempts,omitempty"`
	WastedStandaloneSeconds float64 `json:"wasted_standalone_seconds,omitempty"`
	Failed                  bool    `json:"failed,omitempty"`
}

// Sample is one point of the per-node utilization time series: the
// cores in use on each node immediately after the scheduling pass at
// TimeSeconds.
type Sample struct {
	TimeSeconds float64 `json:"time_seconds"`
	CoresInUse  []int   `json:"cores_in_use"`
}

// Summary aggregates a simulation's queueing metrics.
type Summary struct {
	Policy                string  `json:"policy"`
	Nodes                 int     `json:"nodes"`
	CoresPerSocket        int     `json:"cores_per_socket"`
	Jobs                  int     `json:"jobs"`
	MakespanSeconds       float64 `json:"makespan_seconds"`
	MeanWaitSeconds       float64 `json:"mean_wait_seconds"`
	MaxWaitSeconds        float64 `json:"max_wait_seconds"`
	MeanTurnaroundSeconds float64 `json:"mean_turnaround_seconds"`
	MeanBoundedSlowdown   float64 `json:"mean_bounded_slowdown"`
	MaxBoundedSlowdown    float64 `json:"max_bounded_slowdown"`
	// Interference and the stretch aggregates appear only when the
	// cross-job interference model was enabled for the run.
	Interference bool    `json:"interference,omitempty"`
	MeanStretch  float64 `json:"mean_stretch,omitempty"`
	MaxStretch   float64 `json:"max_stretch,omitempty"`
	// Fault-model aggregates, present only when failures were enabled.
	// Goodput is the standalone-seconds of demand actually delivered
	// (completed jobs); badput is the standalone-seconds burned on
	// attempts that a failure threw away (including banked checkpoints
	// of jobs that ultimately failed).
	Faults                   bool    `json:"faults,omitempty"`
	CompletedJobs            int     `json:"completed_jobs,omitempty"`
	FailedJobs               int     `json:"failed_jobs,omitempty"`
	TotalAttempts            int     `json:"total_attempts,omitempty"`
	GoodputStandaloneSeconds float64 `json:"goodput_standalone_seconds,omitempty"`
	BadputStandaloneSeconds  float64 `json:"badput_standalone_seconds,omitempty"`
	// MeanUtilization is busy core-seconds over available core-seconds
	// (nodes x cores x makespan), cluster-wide and per node.
	MeanUtilization float64   `json:"mean_utilization"`
	NodeUtilization []float64 `json:"node_utilization"`
}

// Metrics collects a simulation's outcome: per-job records in trace
// order, the per-node utilization time series, and the aggregate
// summary. All exports are deterministic (slices in fixed order, no
// map iteration).
type Metrics struct {
	Records []JobRecord
	Series  []Sample

	// Passes counts live scheduling passes and Events counts event-heap
	// pops (stale ones included) — engine bookkeeping the fleet
	// benchmarks divide wall time by. Not serialized.
	Passes int
	Events int

	policy       string
	nodes        int
	cores        int
	interference bool
	faults       bool
	summaryOnly  bool      // aggregate on the fly; keep no records or series
	jobs         int       // jobs aggregated (== len(Records) unless summaryOnly)
	busy         []float64 // per-node busy core-seconds, integrated between events
	agg          Summary   // running aggregates; Mean* fields hold sums until finish divides
	summary      Summary
}

func newMetrics(policy string, nodes, cores int, interference, faults bool, fleet FleetOptions) *Metrics {
	return &Metrics{
		policy:       policy,
		nodes:        nodes,
		cores:        cores,
		interference: interference,
		faults:       faults,
		summaryOnly:  fleet.SummaryOnly,
		busy:         make([]float64, nodes),
	}
}

// integrate accrues busy core-seconds for the interval [from, to)
// under the occupancy that held throughout it. free is the engine's
// free-capacity index: free[i] holds exactly FreeAt(from), so node i
// keeps cores - free[i] busy (a down node counts as fully busy).
func (m *Metrics) integrate(free []int, from, to float64) {
	if to <= from {
		return
	}
	for i, f := range free {
		m.busy[i] += float64(m.cores-f) * (to - from)
	}
}

// sample records the post-scheduling occupancy, cores - free per node,
// at an event time.
func (m *Metrics) sample(now float64, free []int) {
	if m.summaryOnly {
		return
	}
	inUse := make([]int, len(free))
	for i, f := range free {
		inUse[i] = m.cores - f
	}
	m.Series = append(m.Series, Sample{TimeSeconds: now, CoresInUse: inUse})
}

// record registers a finished job. Under the interference model the
// run time is the reflowed actual (end - start) and the record carries
// the standalone runtime and the stretch; without it the actual run IS
// the standalone duration and the interference fields stay zero (and
// so out of the serialized output). Under the fault model the run time
// is the final attempt's wall time, and the record carries the attempt
// count, the wasted work and the failure flag. Every exported value
// stays finite even for jobs that never complete — a failed job's
// start/end describe its truncated final attempt, and the bounded-
// slowdown floor is never zero — so the JSON/CSV exports stay valid.
func (m *Metrics) record(st *jobState) {
	wait := st.start - st.job.ArrivalSeconds
	turnaround := st.end - st.job.ArrivalSeconds
	run := st.duration
	if m.faults {
		// The final attempt's wall time: under checkpoint-restart a
		// completed job's last attempt covers duration - credit
		// standalone-seconds; a failed job's was cut short by the kill.
		run = st.end - st.start
	}
	rec := JobRecord{
		ID:             st.job.ID,
		Workflow:       st.job.Workflow.Name,
		Ranks:          st.job.Workflow.Ranks,
		Node:           st.node,
		Config:         st.cfg,
		ArrivalSeconds: st.job.ArrivalSeconds,
		StartSeconds:   st.start,
		EndSeconds:     st.end,
	}
	if m.interference {
		run = st.end - st.start
		// Dilation is measured over the work the final attempt actually
		// carried (duration minus checkpoint credit; the credit is
		// whatever was banked when that attempt started). Failed jobs
		// carry no stretch — the attempt never finished its work.
		if base := st.duration - st.credit; !st.failed && base > 0 {
			rec.Stretch = run / base
		}
	}
	if m.interference || m.faults {
		rec.StandaloneSeconds = st.duration
	}
	if m.faults {
		rec.Attempts = st.attempts
		rec.WastedStandaloneSeconds = st.wasted
		rec.Failed = st.failed
	}
	if run < 0 {
		run = 0
	}
	bsld := turnaround / max(run, DefaultSlowdownBoundSeconds)
	if bsld < 1 {
		bsld = 1
	}
	rec.RunSeconds = run
	rec.WaitSeconds = wait
	rec.TurnaroundSeconds = turnaround
	rec.BoundedSlowdown = bsld
	if m.summaryOnly {
		// Fold the job straight into the aggregates (in finish order, not
		// trace order — summation order is the one observable difference)
		// and keep nothing per-job.
		m.jobs++
		m.accumulate(rec)
		return
	}
	m.Records = append(m.Records, rec)
}

// accumulate folds one job record into the running aggregates. The
// Mean* fields hold plain sums until finish divides them.
func (m *Metrics) accumulate(r JobRecord) {
	s := &m.agg
	if r.EndSeconds > s.MakespanSeconds {
		s.MakespanSeconds = r.EndSeconds
	}
	s.MeanWaitSeconds += r.WaitSeconds
	if r.WaitSeconds > s.MaxWaitSeconds {
		s.MaxWaitSeconds = r.WaitSeconds
	}
	s.MeanTurnaroundSeconds += r.TurnaroundSeconds
	s.MeanBoundedSlowdown += r.BoundedSlowdown
	if r.BoundedSlowdown > s.MaxBoundedSlowdown {
		s.MaxBoundedSlowdown = r.BoundedSlowdown
	}
	if m.interference {
		s.MeanStretch += r.Stretch
		if r.Stretch > s.MaxStretch {
			s.MaxStretch = r.Stretch
		}
	}
	if m.faults {
		s.TotalAttempts += r.Attempts
		s.BadputStandaloneSeconds += r.WastedStandaloneSeconds
		if r.Failed {
			s.FailedJobs++
		} else {
			s.CompletedJobs++
			s.GoodputStandaloneSeconds += r.StandaloneSeconds
		}
	}
}

// finish computes the aggregate summary once all records are in.
func (m *Metrics) finish() {
	if !m.summaryOnly {
		m.jobs = len(m.Records)
		for _, r := range m.Records {
			m.accumulate(r)
		}
	}
	s := m.agg
	s.Policy = m.policy
	s.Nodes = m.nodes
	s.CoresPerSocket = m.cores
	s.Jobs = m.jobs
	s.Interference = m.interference
	s.Faults = m.faults
	s.NodeUtilization = make([]float64, m.nodes)
	if n := float64(m.jobs); n > 0 {
		s.MeanWaitSeconds /= n
		s.MeanTurnaroundSeconds /= n
		s.MeanBoundedSlowdown /= n
		s.MeanStretch /= n
	}
	if s.MakespanSeconds > 0 {
		total := 0.0
		for i, b := range m.busy {
			s.NodeUtilization[i] = b / (float64(m.cores) * s.MakespanSeconds)
			total += b
		}
		s.MeanUtilization = total / (float64(m.nodes) * float64(m.cores) * s.MakespanSeconds)
	}
	m.summary = s
}

// Summary returns the aggregate queueing metrics.
func (m *Metrics) Summary() Summary { return m.summary }

// WriteJSON writes the full report (summary, per-job records,
// utilization series) as one JSON document. Equal traces, options and
// seeds produce byte-identical output. A summary-only run (the
// SummaryOnly fleet option) kept no records or series and emits just
// the summary object.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if m.summaryOnly {
		return enc.Encode(struct {
			Summary Summary `json:"summary"`
		}{Summary: m.summary})
	}
	doc := struct {
		Summary Summary     `json:"summary"`
		Jobs    []JobRecord `json:"jobs"`
		Series  []Sample    `json:"series"`
	}{Summary: m.summary, Jobs: m.Records, Series: m.Series}
	return enc.Encode(doc)
}

// WriteCSV writes the per-job records and the utilization series as two
// CSV tables separated by a blank line, each preceded by a "# title"
// comment row (the experiment harness's CSV convention).
func (m *Metrics) WriteCSV(w io.Writer) error {
	jobs := m.jobTable()
	if _, err := fmt.Fprintf(w, "# %s: per-job metrics\n", m.policy); err != nil {
		return err
	}
	if err := jobs.WriteCSV(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\n# %s: per-node utilization series\n", m.policy); err != nil {
		return err
	}
	return m.seriesTable().WriteCSV(w)
}

// Render writes a human-readable report: the summary block, the per-job
// table and the per-node utilizations.
func (m *Metrics) Render(w io.Writer) error {
	s := m.summary
	if _, err := fmt.Fprintf(w, "== %s on %d node(s) x %d cores/socket: %d jobs ==\n",
		s.Policy, s.Nodes, s.CoresPerSocket, s.Jobs); err != nil {
		return err
	}
	if err := m.jobTable().WriteText(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "makespan %.2fs | wait mean %.2fs max %.2fs | bounded slowdown mean %.3f max %.3f | utilization %.1f%%\n",
		s.MakespanSeconds, s.MeanWaitSeconds, s.MaxWaitSeconds,
		s.MeanBoundedSlowdown, s.MaxBoundedSlowdown, 100*s.MeanUtilization); err != nil {
		return err
	}
	if s.Interference {
		if _, err := fmt.Fprintf(w, "interference on | stretch mean %.3f max %.3f\n", s.MeanStretch, s.MaxStretch); err != nil {
			return err
		}
	}
	if s.Faults {
		if _, err := fmt.Fprintf(w, "faults on | completed %d failed %d attempts %d | goodput %.2fs badput %.2fs\n",
			s.CompletedJobs, s.FailedJobs, s.TotalAttempts,
			s.GoodputStandaloneSeconds, s.BadputStandaloneSeconds); err != nil {
			return err
		}
	}
	for i, u := range s.NodeUtilization {
		if _, err := fmt.Fprintf(w, "  node %d utilization %.1f%%\n", i, 100*u); err != nil {
			return err
		}
	}
	return nil
}

func (m *Metrics) jobTable() *trace.Table {
	cols := []string{"job", "workflow", "ranks", "node", "config", "arrival", "start", "end", "wait", "bsld"}
	if m.interference {
		cols = append(cols, "stretch")
	}
	if m.faults {
		cols = append(cols, "attempts", "wasted", "state")
	}
	t := &trace.Table{Title: "per-job metrics", Columns: cols}
	for _, r := range m.Records {
		row := []any{r.ID, r.Workflow, r.Ranks, r.Node, r.Config,
			fmt.Sprintf("%.2f", r.ArrivalSeconds), fmt.Sprintf("%.2f", r.StartSeconds),
			fmt.Sprintf("%.2f", r.EndSeconds), fmt.Sprintf("%.2f", r.WaitSeconds),
			fmt.Sprintf("%.3f", r.BoundedSlowdown)}
		if m.interference {
			row = append(row, fmt.Sprintf("%.3f", r.Stretch))
		}
		if m.faults {
			state := "done"
			if r.Failed {
				state = "FAILED"
			}
			row = append(row, r.Attempts, fmt.Sprintf("%.2f", r.WastedStandaloneSeconds), state)
		}
		t.AddRow(row...)
	}
	return t
}

func (m *Metrics) seriesTable() *trace.Table {
	cols := []string{"time"}
	for i := 0; i < m.nodes; i++ {
		cols = append(cols, fmt.Sprintf("node%d_cores_in_use", i))
	}
	t := &trace.Table{Title: "per-node utilization series", Columns: cols}
	for _, s := range m.Series {
		row := []any{fmt.Sprintf("%.2f", s.TimeSeconds)}
		for _, c := range s.CoresInUse {
			row = append(row, c)
		}
		t.AddRow(row...)
	}
	return t
}
