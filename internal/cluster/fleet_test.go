package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// TestBackoffOverflowGuard is the regression test for the guarded
// no-fit sentinel. An exponential backoff can overflow: with
// BackoffSeconds near the float ceiling (or a huge factor), the
// requeue offset multiplies past 1.8e308 and the requeue time becomes
// +Inf. The engine used to post that arrival verbatim: the job
// restarted at +Inf, its record carried +Inf start/end, the busy-time
// integration computed 0 * Inf = NaN utilization, and WriteJSON failed
// outright with "json: unsupported value". The kill path now checks
// the sentinel before using the requeue time and fails the job
// permanently instead, keeping every exported value finite.
func TestBackoffOverflowGuard(t *testing.T) {
	wf := workloads.GTCReadOnly(2)
	tr := Trace{Jobs: []Job{{ID: 0, Workflow: wf, ArrivalSeconds: 0}}}
	est := fakeEst{dur: map[string]float64{wf.Name: 1e140}}
	retry := RetryPolicy{MaxAttempts: 4, BackoffSeconds: 1e154, BackoffFactor: 1e160}
	// First kill at t=10: requeue at 10 + 1e154, restart at 1e154.
	// Second kill mid-second-attempt: backoff(2) = 1e154 * 1e160
	// overflows to +Inf.
	m, err := Simulate(tr, faultOptions(EASY(core.SLocW), est, ScheduledFaults(
		Outage{Node: 0, DownSeconds: 10, UpSeconds: 20},
		Outage{Node: 0, DownSeconds: 1e154 + 5e139, UpSeconds: 1e154 + 6e139},
	), retry))
	if err != nil {
		t.Fatal(err)
	}
	r := recordOf(t, m, 0)
	if !r.Failed || r.Attempts != 2 {
		t.Fatalf("job should fail permanently on the overflowing backoff: failed=%v attempts=%d", r.Failed, r.Attempts)
	}
	for name, v := range map[string]float64{
		"start": r.StartSeconds, "end": r.EndSeconds, "run": r.RunSeconds,
		"wait": r.WaitSeconds, "turnaround": r.TurnaroundSeconds, "bsld": r.BoundedSlowdown,
		"wasted": r.WastedStandaloneSeconds,
	} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("record %s = %v, want finite", name, v)
		}
	}
	s := m.Summary()
	if s.FailedJobs != 1 || s.CompletedJobs != 0 {
		t.Errorf("summary failed/completed = %d/%d, want 1/0", s.FailedJobs, s.CompletedJobs)
	}
	for i, u := range s.NodeUtilization {
		if math.IsInf(u, 0) || math.IsNaN(u) {
			t.Errorf("node %d utilization %v, want finite", i, u)
		}
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("report with overflowed backoff must stay serializable: %v", err)
	}
}

// TestNodeViewRemoveMissing pins remove's contract: it reports whether
// the resident existed, so the engine can turn a missing resident (a
// double completion, or a completion that should have been staled)
// into a hard error instead of silently corrupting its accounting.
func TestNodeViewRemoveMissing(t *testing.T) {
	n := &NodeView{ID: 0, Cores: 8, Running: []RunningJob{{JobID: 7, Ranks: 2, EndSeconds: 5}}}
	if n.remove(3) {
		t.Error("removing an absent job reported found")
	}
	if len(n.Running) != 1 {
		t.Error("removing an absent job mutated the resident list")
	}
	if !n.remove(7) {
		t.Error("removing a resident job reported missing")
	}
	if n.remove(7) {
		t.Error("double-removing a job reported found")
	}
}

// TestCapacityEdgeCases pins FreeAt/EarliestFit at their boundary
// instants: a resident ending exactly at now holds nothing, a down
// node whose repair lands exactly at now has full capacity, and a job
// as wide as a socket fits while one rank more never does.
func TestCapacityEdgeCases(t *testing.T) {
	busy := &NodeView{ID: 0, Cores: 8, Running: []RunningJob{{JobID: 0, Ranks: 8, EndSeconds: 10}}}
	if got := busy.FreeAt(10); got != 8 {
		t.Errorf("resident ending exactly at now still holds cores: FreeAt(10) = %d, want 8", got)
	}
	if got := busy.FreeAt(9.999); got != 0 {
		t.Errorf("FreeAt just before the end = %d, want 0", got)
	}
	if got := busy.EarliestFit(10, 8, 0); got != 10 {
		t.Errorf("EarliestFit at the completion instant = %g, want 10", got)
	}
	if got := busy.EarliestFit(0, 8, 0); got != 10 {
		t.Errorf("EarliestFit scanning to the completion instant = %g, want 10", got)
	}
	if got := busy.EarliestFit(0, 9, 0); !isNoFit(got) {
		t.Errorf("EarliestFit for more ranks than cores = %g, want the no-fit sentinel", got)
	}

	empty := &NodeView{ID: 1, Cores: 8}
	if got := empty.EarliestFit(3, 8, 0); got != 3 {
		t.Errorf("socket-wide job on an empty node: EarliestFit = %g, want now", got)
	}

	down := &NodeView{ID: 2, Cores: 8, Down: true, UpSeconds: 10}
	if got := down.FreeAt(10); got != 8 {
		t.Errorf("down node with repair exactly at now: FreeAt(10) = %d, want 8", got)
	}
	if got := down.FreeAt(9.5); got != 0 {
		t.Errorf("down node before repair: FreeAt(9.5) = %d, want 0", got)
	}
	if got := down.EarliestFit(10, 3, 0); got != 10 {
		t.Errorf("down node with repair exactly at now: EarliestFit = %g, want now", got)
	}
	if got := down.EarliestFit(4, 3, 0); got != 10 {
		t.Errorf("down node before repair: EarliestFit = %g, want the repair time", got)
	}
}

// TestFreeIndexMatchesBruteForce drives the free-capacity index with a
// seeded random op sequence and checks every query against a naive
// free-core array after each op: the eachFit walk, whose first node is
// the first fit, must visit exactly the nodes the array says fit, for
// every rank count, with and without a skipped node.
func TestFreeIndexMatchesBruteForce(t *testing.T) {
	const nodes, cores = 150, 8
	ix := newFreeIndex(nodes, cores)
	free := make([]int, nodes)
	for i := range free {
		free[i] = cores
	}
	check := func(step int) {
		t.Helper()
		for ranks := 0; ranks <= cores+1; ranks++ {
			for _, skip := range []int{-1, (step*7 + ranks) % nodes} {
				var walked []int
				ix.eachFit(ranks, skip, func(id int) bool {
					walked = append(walked, id)
					return len(walked) < 5
				})
				var want []int
				for id, f := range free {
					if id != skip && f >= ranks && len(want) < 5 {
						want = append(want, id)
					}
				}
				if fmt.Sprint(walked) != fmt.Sprint(want) {
					t.Fatalf("step %d: eachFit(%d, %d) walked %v, want %v", step, ranks, skip, walked, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	check(0)
	for step := 1; step <= 300; step++ {
		id := rng.Intn(nodes)
		switch rng.Intn(4) {
		case 0:
			if r := rng.Intn(free[id] + 1); r > 0 {
				ix.place(id, r)
				free[id] -= r
			}
		case 1:
			if r := rng.Intn(cores - free[id] + 1); r > 0 {
				ix.remove(id, r)
				free[id] += r
			}
		case 2:
			ix.down(id)
			free[id] = 0
		case 3:
			ix.up(id)
			free[id] = cores
		}
		check(step)
	}
}

// tentativeOnly is a policy that places its jobs tentatively on the
// listed nodes, in order, and commits nothing.
type tentativeOnly struct {
	jobs  []Job
	nodes []int
	// during is the index's first fit for a whole socket, read after
	// the tentative placements.
	during int
}

func (p *tentativeOnly) Name() string { return "tentative-only" }

func (p *tentativeOnly) Schedule(ctx *SchedContext) ([]Placement, error) {
	for i, node := range p.nodes {
		ctx.Place(p.jobs[i], node, core.Config{}, 10, JobProfile{})
	}
	p.during = ctx.firstFit(ctx.idx.cores, 0, -1)
	return nil, nil
}

// TestPassRestoresIndexAndView checks the restore every policy pass
// ends with: a pass whose policy places tentatively on several nodes,
// twice on one of them, and returns no placements must leave every
// index count and every view entry as it found them.
func TestPassRestoresIndexAndView(t *testing.T) {
	e, err := newEngine(Options{Nodes: 70, CoresPerSocket: 8, Policy: FCFS(core.SLocW), Estimator: fakeEst{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ node, ranks int }{{3, 8}, {65, 5}} {
		e.nodes[r.node].place(100+r.node, r.ranks, 50, 0, JobProfile{})
		e.idx.place(r.node, r.ranks)
	}
	pol := &tentativeOnly{nodes: []int{0, 65, 0, 69}}
	for i, ranks := range []int{4, 3, 2, 8} {
		pol.jobs = append(pol.jobs, Job{ID: i, Workflow: workloads.GTCReadOnly(ranks)})
	}
	e.opt.Policy = pol
	free := append([]int(nil), e.idx.free...)
	view := append([]*NodeView(nil), e.view...)
	if err := e.pass(0); err != nil {
		t.Fatal(err)
	}
	if pol.during != 1 {
		t.Errorf("first fit for 8 ranks during the pass = %d, want 1", pol.during)
	}
	for id := range e.nodes {
		if e.idx.free[id] != free[id] {
			t.Errorf("node %d holds %d free cores after the pass, want %d", id, e.idx.free[id], free[id])
		}
		if e.view[id] != view[id] || e.view[id] != e.nodes[id] {
			t.Errorf("node %d: view entry %p after the pass, want the node %p", id, e.view[id], e.nodes[id])
		}
	}
	if n := e.nodes[0]; len(n.Running) != 0 {
		t.Errorf("node 0 holds %d residents after a pass that committed nothing", len(n.Running))
	}
}

// TestIndexDriftPanics: a count the index cannot hold — below zero or
// above a socket's capacity — means the index has drifted from the
// node views, and must fail loudly, naming the node, the count and
// the capacity.
func TestIndexDriftPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(ix *freeIndex)
		want string
	}{
		{"over-place", func(ix *freeIndex) { ix.place(2, 6) }, "node 2 would hold -2 free cores (capacity 8)"},
		{"over-remove", func(ix *freeIndex) { ix.remove(2, 5) }, "node 2 would hold 9 free cores (capacity 8)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ix := newFreeIndex(3, 8)
			ix.place(2, 4)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "free-capacity index drifted") || !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want a drift message with %q", msg, c.want)
				}
			}()
			c.op(ix)
		})
	}
}

// TestZeroDurationPlacementIndexed pins that a zero-duration placement
// never charges the index: such a resident ends at Now and so holds no
// cores under FreeAt(Now), and the index must agree. If place charged
// its cores, the 4-rank follower would not co-place with the 4-rank
// zero-duration job on the 6-core node and the schedule would diverge
// from the linear scan's.
func TestZeroDurationPlacementIndexed(t *testing.T) {
	z := workloads.GTCReadOnly(4)
	b := workloads.MiniAMRReadOnly(4)
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: z, ArrivalSeconds: 0},
		{ID: 1, Workflow: b, ArrivalSeconds: 0},
	}}
	est := fakeEst{dur: map[string]float64{z.Name: 0, b.Name: 10}}
	opt := Options{Nodes: 1, CoresPerSocket: 6, Policy: EASY(core.SLocW), Estimator: est}
	idxRun, err := Simulate(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkLinearRef(t, "zero-duration", opt, idxRun, func(o Options) *Metrics {
		m, err := Simulate(tr, o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	if r := recordOf(t, idxRun, 1); r.StartSeconds != 0 {
		t.Errorf("follower started at %g, want 0 (co-placed with the zero-duration job)", r.StartSeconds)
	}
}

// stubSource yields a fixed job list verbatim, malformed or not.
type stubSource struct {
	jobs []Job
	i    int
}

func (s *stubSource) Next() (Job, bool, error) {
	if s.i >= len(s.jobs) {
		return Job{}, false, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, true, nil
}

// TestSimulateStreamEquivalence checks that the streaming engine
// reproduces the materialized engine byte for byte across every source
// flavor: an in-memory trace's Source, the incremental JSON decoder
// over the serialized trace, and the draw-for-draw synthetic stream.
func TestSimulateStreamEquivalence(t *testing.T) {
	catalog, est := propertyCatalog()
	cfg := SyntheticConfig{Jobs: 40, MeanInterarrivalSeconds: 8, Seed: 9}
	tr, err := Synthetic(catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Nodes: 3, CoresPerSocket: 8, Policy: PMEMAware(), Estimator: est, Interference: DefaultInterference()}
	want, err := Simulate(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}

	var traceJSON bytes.Buffer
	if err := WriteTrace(&traceJSON, tr); err != nil {
		t.Fatal(err)
	}
	synth, err := SyntheticSource(catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]TraceSource{
		"slice":     tr.Source(),
		"json":      StreamTrace(bytes.NewReader(traceJSON.Bytes())),
		"synthetic": synth,
	}
	for _, name := range []string{"slice", "json", "synthetic"} {
		m, err := SimulateStream(sources[name], opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got bytes.Buffer
		if err := m.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantJSON.Bytes()) {
			t.Errorf("%s source: streaming report differs from the materialized engine's", name)
		}
	}
}

// TestSimulateStreamValidation checks the engine fails fast on
// malformed streams instead of simulating garbage.
func TestSimulateStreamValidation(t *testing.T) {
	wf := workloads.GTCReadOnly(2)
	est := fakeEst{dur: map[string]float64{wf.Name: 5}}
	opt := Options{Nodes: 1, CoresPerSocket: 6, Policy: FCFS(core.SLocW), Estimator: est}
	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{"unsorted", []Job{
			{ID: 0, Workflow: wf, ArrivalSeconds: 5},
			{ID: 1, Workflow: wf, ArrivalSeconds: 2},
		}, "must be sorted"},
		{"bad-id", []Job{{ID: 3, Workflow: wf, ArrivalSeconds: 0}}, "IDs must equal stream positions"},
		{"negative-arrival", []Job{{ID: 0, Workflow: wf, ArrivalSeconds: -1}}, "negative arrival"},
		{"empty", nil, "empty trace"},
	}
	for _, c := range cases {
		_, err := SimulateStream(&stubSource{jobs: c.jobs}, opt)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// TestStreamTraceStrict pins StreamTrace to ReadTrace's strictness: a
// job with an unknown field, an unknown top-level key after the job
// array, a document truncated before its closing brackets and trailing
// data after the trace object are errors on both, where the streaming
// decoder used to skip the field, ignore the key and stop at the end of
// input as if the array had closed.
func TestStreamTraceStrict(t *testing.T) {
	var spec bytes.Buffer
	if err := workflow.WriteSpec(&spec, workloads.GTCReadOnly(2)); err != nil {
		t.Fatal(err)
	}
	job := `{"arrival_seconds": 0, "workflow": ` + spec.String() + `}`
	for _, key := range []string{"jobs", "Jobs"} { // field names match case-insensitively
		if _, err := collect(StreamTrace(strings.NewReader(`{"` + key + `": [` + job + `]}`))); err != nil {
			t.Fatalf("well-formed trace rejected: %v", err)
		}
	}
	for _, c := range []struct{ name, doc, want string }{
		{"unknown job field", `{"jobs": [{"arrival_seconds": 0, "bogus": 1, "workflow": ` + spec.String() + `}]}`, "unknown field"},
		{"unknown key after jobs", `{"jobs": [` + job + `], "extra": 1}`, "want }, got extra"},
		{"truncated", `{"jobs": [` + job, "unexpected EOF"},
		{"trailing data", `{"jobs": [` + job + `]} {}`, "after the trace object"},
		{"wrong key", `{"jobz": [` + job + `]}`, "want jobs, got jobz"},
	} {
		if _, err := collect(StreamTrace(strings.NewReader(c.doc))); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: StreamTrace error %v, want it to mention %q", c.name, err, c.want)
		}
		if _, err := ReadTrace(strings.NewReader(c.doc)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadTrace error %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// TestSummaryOnly checks the constant-memory aggregation mode: no
// records, no series, a summary-only JSON document, and aggregates
// that agree with the recorded mode up to summation order.
func TestSummaryOnly(t *testing.T) {
	catalog, est := propertyCatalog()
	tr, err := Synthetic(catalog, SyntheticConfig{Jobs: 30, MeanInterarrivalSeconds: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Nodes: 2, CoresPerSocket: 8, Policy: EASY(core.SLocW), Estimator: est,
		Faults: RandomFaults(200, 30, 4)}
	full, err := Simulate(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	soOpt := opt
	soOpt.Fleet.SummaryOnly = true
	so, err := Simulate(tr, soOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(so.Records) != 0 || len(so.Series) != 0 {
		t.Fatalf("summary-only run kept %d records and %d samples", len(so.Records), len(so.Series))
	}
	fs, ss := full.Summary(), so.Summary()
	if ss.Jobs != fs.Jobs || ss.CompletedJobs != fs.CompletedJobs || ss.FailedJobs != fs.FailedJobs || ss.TotalAttempts != fs.TotalAttempts {
		t.Errorf("summary-only counts diverged: %+v vs %+v", ss, fs)
	}
	if !closeRel(ss.MakespanSeconds, fs.MakespanSeconds) || !closeRel(ss.MeanWaitSeconds, fs.MeanWaitSeconds) ||
		!closeRel(ss.MeanBoundedSlowdown, fs.MeanBoundedSlowdown) || !closeRel(ss.MeanUtilization, fs.MeanUtilization) {
		t.Errorf("summary-only aggregates drifted beyond summation order: %+v vs %+v", ss, fs)
	}
	var buf bytes.Buffer
	if err := so.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["summary"]; !ok {
		t.Error("summary-only JSON lacks the summary object")
	}
	if _, ok := doc["jobs"]; ok {
		t.Error("summary-only JSON still carries per-job records")
	}
}
