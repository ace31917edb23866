package cluster

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// fakeEst is a canned-duration cost model for crafting queueing
// scenarios: every (workflow, configuration) runs for the seconds keyed
// by the workflow's name, every recommendation is S-LocW, and profiles
// come from an optional per-workflow table (zero profile when absent).
type fakeEst struct {
	dur  map[string]float64
	prof map[string]JobProfile
}

func (f fakeEst) Estimate(wf workflow.Spec, _ core.Config) (float64, error) {
	d, ok := f.dur[wf.Name]
	if !ok {
		return 0, &unknownWorkflowError{wf.Name}
	}
	return d, nil
}

func (f fakeEst) Recommend(workflow.Spec) (core.Config, error) { return core.SLocW, nil }

func (f fakeEst) Profile(wf workflow.Spec, _ core.Config) (JobProfile, error) {
	if _, ok := f.dur[wf.Name]; !ok {
		return JobProfile{}, &unknownWorkflowError{wf.Name}
	}
	return f.prof[wf.Name], nil
}

type unknownWorkflowError struct{ name string }

func (e *unknownWorkflowError) Error() string { return "fake estimator: unknown workflow " + e.name }

// craftedTrace builds the backfill scenario used by the engine and
// policy tests, on one 6-cores-per-socket node:
//
//	A (4 ranks, 10s) arrives at t=0 and starts immediately.
//	B (6 ranks,  8s) arrives at t=1; it needs the whole node, so it is
//	  blocked until A completes — its reservation is t=10.
//	C (2 ranks,  5s) arrives at t=2; it fits in A's leftover cores and
//	  ends at 7 < 10, so EASY backfills it.
//	D (2 ranks, 20s) arrives at t=3; once C frees cores at t=7 it fits,
//	  but running it would leave only 4 cores at t=10 and delay B, so
//	  EASY must hold it until B has started.
func craftedTrace() (Trace, fakeEst) {
	a := workloads.GTCReadOnly(4)
	b := workloads.MiniAMRReadOnly(6)
	c := workloads.GTCMatrixMult(2)
	d := workloads.MiniAMRMatrixMult(2)
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: a, ArrivalSeconds: 0},
		{ID: 1, Workflow: b, ArrivalSeconds: 1},
		{ID: 2, Workflow: c, ArrivalSeconds: 2},
		{ID: 3, Workflow: d, ArrivalSeconds: 3},
	}}
	est := fakeEst{dur: map[string]float64{
		a.Name: 10,
		b.Name: 8,
		c.Name: 5,
		d.Name: 20,
	}}
	return tr, est
}

func craftedOptions(p Policy, est Estimator) Options {
	return Options{Nodes: 1, CoresPerSocket: 6, Policy: p, Estimator: est}
}

func startOf(t *testing.T, m *Metrics, id int) float64 {
	t.Helper()
	for _, r := range m.Records {
		if r.ID == id {
			return r.StartSeconds
		}
	}
	t.Fatalf("no record for job %d", id)
	return 0
}

// TestEASYBackfill pins the crafted scenario's schedule: the short job
// backfills, the head keeps its reservation, and the long job that
// would delay the head waits until the head has started.
func TestEASYBackfill(t *testing.T) {
	tr, est := craftedTrace()
	m, err := Simulate(tr, craftedOptions(EASY(core.SLocW), est))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 10, 2, 18} // A, B, C, D
	for id, w := range want {
		if got := startOf(t, m, id); math.Abs(got-w) > 1e-9 {
			t.Errorf("job %d started at %.3f, want %.3f", id, got, w)
		}
	}
}

// TestFCFSBlocks pins the no-backfill discipline on the same scenario:
// the blocked head blocks everything behind it even though the short
// jobs fit, so C and D start only after B.
func TestFCFSBlocks(t *testing.T) {
	tr, est := craftedTrace()
	m, err := Simulate(tr, craftedOptions(FCFS(core.SLocW), est))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 10, 18, 18} // A, B, C, D
	for id, w := range want {
		if got := startOf(t, m, id); math.Abs(got-w) > 1e-9 {
			t.Errorf("job %d started at %.3f, want %.3f", id, got, w)
		}
	}
}

// headGuard wraps a policy and fails the test if any scheduling pass
// worsens the head-of-queue job's reservation — the EASY invariant:
// backfilled jobs may never delay the earliest time the head can start.
type headGuard struct {
	t     *testing.T
	inner Policy
}

func (g *headGuard) Name() string { return g.inner.Name() }

func (g *headGuard) Schedule(ctx *SchedContext) ([]Placement, error) {
	before := 0.0
	if len(ctx.Queue) > 0 {
		before, _ = ctx.EarliestFitJob(ctx.Queue[0])
	}
	placed, err := g.inner.Schedule(ctx)
	if err != nil || len(ctx.Queue) == 0 {
		return placed, err
	}
	head := ctx.Queue[0]
	for _, p := range placed {
		if p.JobID == head.ID {
			return placed, nil // the head started; nothing to guard
		}
	}
	// ctx.Nodes is the snapshot the policy recorded its placements on,
	// so EarliestFitJob now reflects the pass's backfill decisions — for
	// a head holding DRAM, on its DRAM as well as its cores.
	if after, _ := ctx.EarliestFitJob(head); after > before+1e-9 {
		g.t.Errorf("%s: pass at t=%.3f delayed head job %d's reservation %.3f -> %.3f",
			g.inner.Name(), ctx.Now, head.ID, before, after)
	}
	return placed, err
}

// TestBackfillNeverDelaysHead checks the EASY invariant at every
// scheduling pass of the bundled suite trace, for both backfilling
// policies, across several seeds and loads, on the real cost model.
func TestBackfillNeverDelaysHead(t *testing.T) {
	rt := core.NewRunner(core.DefaultEnv(), 0)
	est := NewEstimator(rt)
	for _, seed := range []int64{1, 7, 42} {
		for _, ia := range []float64{3, 8} {
			tr, err := SuiteTrace(seed, ia)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range []Policy{EASY(core.SLocW), PMEMAware()} {
				if _, err := Simulate(tr, Options{Nodes: 2, Policy: &headGuard{t: t, inner: pol}, Estimator: est}); err != nil {
					t.Fatalf("seed %d ia %g %s: %v", seed, ia, pol.Name(), err)
				}
			}
		}
	}
}

// TestPMEMAwareMatchesRecommend: the PMEM-aware policy's per-job
// configuration choices must be exactly what the Table II recommender
// returns for each workflow standalone — the policy adds queueing, not
// new configuration logic.
func TestPMEMAwareMatchesRecommend(t *testing.T) {
	rt := core.NewRunner(core.DefaultEnv(), 0)
	tr, err := SuiteTrace(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(tr, Options{Nodes: 2, Policy: PMEMAware(), Estimator: NewEstimator(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != len(tr.Jobs) {
		t.Fatalf("%d records for %d jobs", len(m.Records), len(tr.Jobs))
	}
	for _, r := range m.Records {
		rec, err := rt.RecommendWorkflow(tr.Jobs[r.ID].Workflow)
		if err != nil {
			t.Fatal(err)
		}
		if r.Config != rec.Config.Label() {
			t.Errorf("job %d (%s): scheduled under %s, recommender says %s",
				r.ID, r.Workflow, r.Config, rec.Config.Label())
		}
	}
}

// TestPMEMAwareBeatsFixed is the subsystem's acceptance criterion: on
// the bundled trace at 2 nodes, the PMEM-aware policy must beat the
// best fixed single-configuration policy on mean bounded slowdown at
// every load factor of the online experiment.
func TestPMEMAwareBeatsFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	rt := core.NewRunner(core.DefaultEnv(), 0)
	est := NewEstimator(rt)
	for _, ia := range []float64{8, 5, 3} {
		tr, err := SuiteTrace(7, ia)
		if err != nil {
			t.Fatal(err)
		}
		bestFixed, bestName := math.Inf(1), ""
		for _, cfg := range core.Configs {
			m, err := Simulate(tr, Options{Nodes: 2, Policy: EASY(cfg), Estimator: est})
			if err != nil {
				t.Fatal(err)
			}
			if s := m.Summary(); s.MeanBoundedSlowdown < bestFixed {
				bestFixed, bestName = s.MeanBoundedSlowdown, s.Policy
			}
		}
		m, err := Simulate(tr, Options{Nodes: 2, Policy: PMEMAware(), Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Summary().MeanBoundedSlowdown; got >= bestFixed {
			t.Errorf("inter-arrival %gs: pmem-aware mean bsld %.3f does not beat best fixed %s %.3f",
				ia, got, bestName, bestFixed)
		}
	}
}

// TestTraceDeterminism: equal seeds and parameters produce
// byte-identical trace JSON; different seeds produce different traces.
func TestTraceDeterminism(t *testing.T) {
	encode := func(tr Trace) string {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, err := SuiteTrace(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SuiteTrace(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if encode(a) != encode(b) {
		t.Error("SuiteTrace: same seed produced different traces")
	}
	c, err := SuiteTrace(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if encode(a) == encode(c) {
		t.Error("SuiteTrace: different seeds produced identical traces")
	}

	cfg := SyntheticConfig{Jobs: 12, MeanInterarrivalSeconds: 30, Seed: 3}
	s1, err := Synthetic(workloads.Suite(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Synthetic(workloads.Suite(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if encode(s1) != encode(s2) {
		t.Error("Synthetic: same seed produced different traces")
	}
}

// TestTraceRoundTrip: WriteTrace and ReadTrace are inverses, and a
// re-encode of the decoded trace is byte-identical.
func TestTraceRoundTrip(t *testing.T) {
	tr, err := SuiteTrace(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ReadTrace(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip changed the trace\ngot:  %+v\nwant: %+v", got, tr)
	}
	var again bytes.Buffer
	if err := WriteTrace(&again, got); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Error("re-encoding the decoded trace changed its bytes")
	}
}

// TestReadTraceSortsAndValidates: unsorted input is stably sorted and
// renumbered; malformed input is rejected.
func TestReadTraceSortsAndValidates(t *testing.T) {
	wf := workloads.GTCReadOnly(8)
	var spec bytes.Buffer
	if err := workflow.WriteSpec(&spec, wf); err != nil {
		t.Fatal(err)
	}
	doc := `{"jobs": [
		{"arrival_seconds": 9, "workflow": ` + spec.String() + `},
		{"arrival_seconds": 2, "workflow": ` + spec.String() + `}
	]}`
	tr, err := ReadTrace(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].ArrivalSeconds != 2 || tr.Jobs[0].ID != 0 || tr.Jobs[1].ID != 1 {
		t.Errorf("trace not sorted and renumbered: %+v", tr.Jobs)
	}
}

// TestTraceErrors exercises the validation paths.
func TestTraceErrors(t *testing.T) {
	if err := (Trace{}).Validate(); err == nil {
		t.Error("empty trace validated")
	}
	wf := workloads.GTCReadOnly(8)
	unsorted := Trace{Jobs: []Job{
		{ID: 0, Workflow: wf, ArrivalSeconds: 5},
		{ID: 1, Workflow: wf, ArrivalSeconds: 1},
	}}
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted trace validated")
	}
	negative := Trace{Jobs: []Job{{ID: 0, Workflow: wf, ArrivalSeconds: -1}}}
	if err := negative.Validate(); err == nil {
		t.Error("negative arrival validated")
	}
	if _, err := ReadTrace(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown trace field accepted")
	}
	if _, err := Synthetic(nil, SyntheticConfig{Jobs: 1, MeanInterarrivalSeconds: 1}); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := Synthetic(workloads.Suite(), SyntheticConfig{Jobs: 0, MeanInterarrivalSeconds: 1}); err == nil {
		t.Error("zero job count accepted")
	}
	if _, err := SuiteTrace(1, 0); err == nil {
		t.Error("non-positive inter-arrival accepted")
	}
}

// TestNonFiniteArrivalsRejected is the regression test for non-finite
// arrival times, which every job intake used to accept: a NaN arrival
// never equals the clock, so its event never drained and Simulate spun
// forever; a +Inf one yielded an infinite makespan; and the store
// queued a NaN arrival (reporting a NaN wait) and parked a +Inf one
// forever. The checks probe the intakes, never the event loop.
func TestNonFiniteArrivalsRejected(t *testing.T) {
	wf := workloads.GTCReadOnly(4)
	est := fakeEst{dur: map[string]float64{wf.Name: 5}}
	opt := Options{Nodes: 1, CoresPerSocket: 6, Policy: FCFS(core.SLocW), Estimator: est}
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := Trace{Jobs: []Job{{ID: 0, Workflow: wf, ArrivalSeconds: at}}}
		if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
			t.Errorf("Validate(arrival %g) = %v, want a non-finite arrival error", at, err)
		}
		// SimulateStream's validating source, probed directly so a
		// regression fails here instead of hanging the engine.
		src := &checkedSource{src: tr.Source(), cores: 6}
		if _, _, err := src.Next(); err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
			t.Errorf("streaming source passed arrival %g (error %v)", at, err)
		}
	}
	st, err := NewState(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if id, err := st.Submit(wf, at); err == nil {
			js, _ := st.Job(id)
			t.Errorf("Submit(arrival %g) accepted as job %d (%s, wait %g)", at, id, js.Phase, js.WaitSeconds)
		}
	}
	if snap := st.Snapshot(); snap.Submitted != 0 {
		t.Errorf("rejected submissions left %d jobs in the store", snap.Submitted)
	}
	// A past arrival still clamps to the clock instead of erroring.
	if _, err := st.Submit(wf, -1); err != nil {
		t.Errorf("Submit(arrival -1) = %v, want it clamped to the clock", err)
	}
}

// TestTraceIDValidation is the regression test for the job-ID indexing
// bug: the engine indexes per-job state by ID, so a hand-assembled
// trace with duplicate or non-contiguous IDs used to panic with
// index-out-of-range or silently merge two jobs' state. Validate must
// reject IDs that do not equal trace positions, and Simulate must
// surface that as an error rather than a panic.
func TestTraceIDValidation(t *testing.T) {
	wf := workloads.GTCReadOnly(4)
	est := fakeEst{dur: map[string]float64{wf.Name: 10}}
	cases := []struct {
		name string
		ids  []int
	}{
		{"duplicate", []int{0, 0}},
		{"non-contiguous", []int{1, 2}},
		{"reversed", []int{1, 0}},
	}
	for _, c := range cases {
		tr := Trace{}
		for i, id := range c.ids {
			tr.Jobs = append(tr.Jobs, Job{ID: id, Workflow: wf, ArrivalSeconds: float64(i)})
		}
		if err := tr.Validate(); err == nil {
			t.Errorf("%s IDs validated", c.name)
		}
		m, err := Simulate(tr, craftedOptions(EASY(core.SLocW), est))
		if err == nil {
			t.Errorf("%s IDs simulated: %+v", c.name, m.Summary())
		}
	}
}

// TestReportDeterminism: two independent simulations of the same trace
// — fresh run engines, fresh metrics — serialize to byte-identical
// JSON, the property the wfsched CLI advertises per seed.
func TestReportDeterminism(t *testing.T) {
	run := func() string {
		rt := core.NewRunner(core.DefaultEnv(), 0)
		tr, err := SuiteTrace(7, 5)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Simulate(tr, Options{Nodes: 2, Policy: PMEMAware(), Estimator: NewEstimator(rt)})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run() != run() {
		t.Error("two identical simulations produced different JSON reports")
	}
}

// TestMetricsAccounting pins the per-job derived metrics and the
// utilization integral on the crafted scenario.
func TestMetricsAccounting(t *testing.T) {
	tr, est := craftedTrace()
	m, err := Simulate(tr, craftedOptions(EASY(core.SLocW), est))
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	// D runs 20s from t=18, so the makespan is 38.
	if math.Abs(s.MakespanSeconds-38) > 1e-9 {
		t.Errorf("makespan %.3f, want 38", s.MakespanSeconds)
	}
	// Busy core-seconds: A 4x10 + B 6x8 + C 2x5 + D 2x20 = 138 over
	// 6 cores x 38s available.
	wantUtil := 138.0 / (6 * 38)
	if math.Abs(s.MeanUtilization-wantUtil) > 1e-9 {
		t.Errorf("utilization %.4f, want %.4f", s.MeanUtilization, wantUtil)
	}
	for _, r := range m.Records {
		if math.Abs(r.WaitSeconds-(r.StartSeconds-r.ArrivalSeconds)) > 1e-9 {
			t.Errorf("job %d: wait %.3f != start-arrival %.3f", r.ID, r.WaitSeconds, r.StartSeconds-r.ArrivalSeconds)
		}
		if math.Abs(r.TurnaroundSeconds-(r.WaitSeconds+r.RunSeconds)) > 1e-9 {
			t.Errorf("job %d: turnaround %.3f != wait+run", r.ID, r.TurnaroundSeconds)
		}
		floor := math.Max(r.RunSeconds, DefaultSlowdownBoundSeconds)
		if want := math.Max(1, r.TurnaroundSeconds/floor); math.Abs(r.BoundedSlowdown-want) > 1e-9 {
			t.Errorf("job %d: bsld %.3f, want %.3f", r.ID, r.BoundedSlowdown, want)
		}
	}
	// The exports must render without error and non-empty.
	var text, csv, js bytes.Buffer
	if err := m.Render(&text); err != nil || text.Len() == 0 {
		t.Errorf("Render: %v (%d bytes)", err, text.Len())
	}
	if err := m.WriteCSV(&csv); err != nil || csv.Len() == 0 {
		t.Errorf("WriteCSV: %v (%d bytes)", err, csv.Len())
	}
	if err := m.WriteJSON(&js); err != nil || js.Len() == 0 {
		t.Errorf("WriteJSON: %v (%d bytes)", err, js.Len())
	}
}

// badPolicy overcommits: it places every queued job on node 0
// unconditionally, which the engine must reject.
type badPolicy struct{}

func (badPolicy) Name() string { return "bad" }
func (badPolicy) Schedule(ctx *SchedContext) ([]Placement, error) {
	var out []Placement
	for _, j := range ctx.Queue {
		out = append(out, Placement{JobID: j.ID, Node: 0, Config: core.SLocW})
	}
	return out, nil
}

// idlePolicy never places anything, which the engine must detect as a
// stall rather than loop or return an empty report.
type idlePolicy struct{}

func (idlePolicy) Name() string { return "idle" }
func (idlePolicy) Schedule(*SchedContext) ([]Placement, error) {
	return nil, nil
}

// TestEngineGuards: option validation, oversized jobs, overcommitting
// and stalling policies are all rejected with errors.
func TestEngineGuards(t *testing.T) {
	tr, est := craftedTrace()
	if _, err := Simulate(tr, Options{Nodes: 0, Policy: PMEMAware(), Estimator: est}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := Simulate(tr, Options{Nodes: 1, Estimator: est}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Simulate(tr, Options{Nodes: 1, Policy: PMEMAware()}); err == nil {
		t.Error("nil estimator accepted")
	}
	// The 6-rank job cannot fit a 4-core socket.
	if _, err := Simulate(tr, Options{Nodes: 2, CoresPerSocket: 4, Policy: EASY(core.SLocW), Estimator: est}); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := Simulate(tr, craftedOptions(badPolicy{}, est)); err == nil {
		t.Error("overcommitting policy accepted")
	}
	if _, err := Simulate(tr, craftedOptions(idlePolicy{}, est)); err == nil {
		t.Error("stalling policy accepted")
	}
}

// TestParsePolicy covers the CLI's policy-name resolution.
func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"fcfs", "fcfs/S-LocW"},
		{"easy", "easy/S-LocW"},
		{"EASY", "easy/S-LocW"},
		{"pmem-aware", "pmem-aware"},
		{"pmem", "pmem-aware"},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.in, core.SLocW)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", c.in, err)
			continue
		}
		if p.Name() != c.want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", c.in, p.Name(), c.want)
		}
	}
	if _, err := ParsePolicy("sjf", core.SLocW); err == nil {
		t.Error("unknown policy name accepted")
	}
	if got := len(Policies(core.SLocW)); got != 3 {
		t.Errorf("Policies returned %d policies, want 3", got)
	}
}
