package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// variedEst is a deterministic canned cost model whose durations,
// recommendations and PMEM demands vary by workflow and configuration,
// so the State-vs-Simulate parity test exercises genuinely different
// placements per policy — and real contention under the interference
// model — without running real simulations.
type variedEst struct{}

func (variedEst) Estimate(wf workflow.Spec, cfg core.Config) (float64, error) {
	base := float64(len(wf.Name)*7+wf.Ranks*13) / 3
	return base * (1 + float64(configIndex(cfg))*0.25), nil
}

func (variedEst) Recommend(wf workflow.Spec) (core.Config, error) {
	return core.Configs[(len(wf.Name)+wf.Ranks)%len(core.Configs)], nil
}

func (variedEst) Profile(wf workflow.Spec, cfg core.Config) (JobProfile, error) {
	k := float64(len(wf.Name) % 3)
	return JobProfile{IOFraction: 0.6, ReadBytesPerSecond: 2e10 * k, WriteBytesPerSecond: 1e10 * k, DeviceSocket: configIndex(cfg) % 2}, nil
}

func configIndex(cfg core.Config) int {
	for i, c := range core.Configs {
		if c == cfg {
			return i
		}
	}
	return 0
}

// replayThroughState submits every trace job into a fresh State built
// from opt (as a future arrival) and advances past the horizon,
// returning the store and the completions in reported order.
func replayThroughState(t *testing.T, tr Trace, opt Options) (*State, []JobStatus) {
	t.Helper()
	st, err := NewState(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if _, err := st.Submit(j.Workflow, j.ArrivalSeconds); err != nil {
			t.Fatalf("submit job %d: %v", j.ID, err)
		}
	}
	step, err := st.AdvanceTo(math.MaxFloat64 / 2)
	if err != nil {
		t.Fatal(err)
	}
	return st, step.Completed
}

// TestStateMatchesSimulate: replaying a trace through the incremental
// store must reproduce the batch engine's placements exactly — same
// node, configuration, start and end per job, for every policy, with
// the interference model off and on — and must report completions in
// the engine's (end, ID) order.
func TestStateMatchesSimulate(t *testing.T) {
	tr, err := SuiteTrace(7, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Interference{{}, DefaultInterference()} {
		for _, pol := range []Policy{FCFS(core.SLocW), EASY(core.PLocR), PMEMAware(), PMEMAwareInterferenceAware()} {
			label := fmt.Sprintf("%s, interference %v", pol.Name(), model.Enabled)
			opt := Options{Nodes: 2, CoresPerSocket: 28, Policy: pol, Estimator: variedEst{}, Interference: model}
			m, err := Simulate(tr, opt)
			if err != nil {
				t.Fatalf("%s: Simulate: %v", label, err)
			}
			st, completed := replayThroughState(t, tr, opt)
			for _, rec := range m.Records {
				js, ok := st.Job(rec.ID)
				if !ok {
					t.Fatalf("%s: state lost job %d", label, rec.ID)
				}
				if js.Phase != JobDone {
					t.Errorf("%s: job %d phase %s, want done", label, rec.ID, js.Phase)
				}
				if js.Node != rec.Node || js.Config != rec.Config ||
					js.StartSeconds != rec.StartSeconds || js.EndSeconds != rec.EndSeconds {
					t.Errorf("%s: job %d: state (node %d cfg %s start %g end %g) != engine (node %d cfg %s start %g end %g)",
						label, rec.ID, js.Node, js.Config, js.StartSeconds, js.EndSeconds,
						rec.Node, rec.Config, rec.StartSeconds, rec.EndSeconds)
				}
			}
			order := append([]JobRecord(nil), m.Records...)
			sort.Slice(order, func(a, b int) bool {
				if order[a].EndSeconds != order[b].EndSeconds {
					return order[a].EndSeconds < order[b].EndSeconds
				}
				return order[a].ID < order[b].ID
			})
			if len(completed) != len(order) {
				t.Fatalf("%s: state reported %d completions for %d jobs", label, len(completed), len(order))
			}
			for i, c := range completed {
				if c.ID != order[i].ID {
					t.Fatalf("%s: completion %d is job %d, engine order says job %d", label, i, c.ID, order[i].ID)
				}
			}
			checkPlacedEnds(t, label, tr, opt, m)
			if model.Enabled && m.Summary().MaxStretch < 1.1 {
				t.Errorf("%s: no job stretched; the interference run tests nothing", label)
			}
		}
	}
}

// TestStateRetiredJobsKeepStatus: the store releases a job's engine
// state when it completes, and Job keeps answering for it with exactly
// the record Step.Completed reported, across many AdvanceTo calls.
func TestStateRetiredJobsKeepStatus(t *testing.T) {
	tr, err := SuiteTrace(11, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Interference{{}, DefaultInterference()} {
		st, err := NewState(Options{Nodes: 2, CoresPerSocket: 28, Policy: PMEMAwareInterferenceAware(), Estimator: variedEst{}, Interference: model})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range tr.Jobs {
			if _, err := st.Submit(j.Workflow, j.ArrivalSeconds); err != nil {
				t.Fatal(err)
			}
		}
		reported := map[int]JobStatus{}
		for to := 0.0; len(reported) < len(tr.Jobs); to += 25 {
			step, err := st.AdvanceTo(to)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range step.Completed {
				reported[c.ID] = c
			}
			// Jobs still in flight are served from live state.
			for id := range tr.Jobs {
				if _, done := reported[id]; done {
					continue
				}
				if js, ok := st.Job(id); !ok || js.Phase == JobDone {
					t.Fatalf("interference %v: unfinished job %d reads as (%+v, %v)", model.Enabled, id, js, ok)
				}
			}
		}
		for id, want := range reported {
			if st.e.states[id] != nil {
				t.Errorf("interference %v: completed job %d still holds its engine state", model.Enabled, id)
			}
			if got, ok := st.Job(id); !ok || got != want {
				t.Errorf("interference %v: Job(%d) = (%+v, %v), Step.Completed said %+v", model.Enabled, id, got, ok, want)
			}
		}
	}
}

// checkPlacedEnds replays tr through a fresh store one event instant
// per AdvanceTo — the arrivals and the engine's completion times — so
// no later instant re-rates a job inside the call that placed it. Each
// Placed must then carry the end the store holds for its job when the
// call returns (under interference, the end after the placing pass's
// reflow), and the replay must still land on the engine's records.
func checkPlacedEnds(t *testing.T, label string, tr Trace, opt Options, m *Metrics) {
	t.Helper()
	st, err := NewState(opt)
	if err != nil {
		t.Fatal(err)
	}
	var instants []float64
	for _, j := range tr.Jobs {
		if _, err := st.Submit(j.Workflow, j.ArrivalSeconds); err != nil {
			t.Fatalf("%s: submit job %d: %v", label, j.ID, err)
		}
		instants = append(instants, j.ArrivalSeconds)
	}
	for _, r := range m.Records {
		instants = append(instants, r.EndSeconds)
	}
	sort.Float64s(instants)
	stretched := 0
	for _, at := range instants {
		if at <= st.Now() && at != 0 {
			continue
		}
		step, err := st.AdvanceTo(at)
		if err != nil {
			t.Fatalf("%s: advance to %g: %v", label, at, err)
		}
		for _, p := range step.Placed {
			js, _ := st.Job(p.JobID)
			if p.EndSeconds != js.EndSeconds {
				t.Errorf("%s: job %d placed with end %g, the store holds %g", label, p.JobID, p.EndSeconds, js.EndSeconds)
			}
			if p.EndSeconds > p.StartSeconds+p.DurationSeconds {
				stretched++
			}
		}
	}
	for _, rec := range m.Records {
		if js, _ := st.Job(rec.ID); js.Phase != JobDone || js.StartSeconds != rec.StartSeconds || js.EndSeconds != rec.EndSeconds {
			t.Errorf("%s: stepped replay: job %d %s start %g end %g, engine start %g end %g",
				label, rec.ID, js.Phase, js.StartSeconds, js.EndSeconds, rec.StartSeconds, rec.EndSeconds)
		}
	}
	if opt.Interference.Enabled && stretched == 0 {
		t.Errorf("%s: no placement was stretched at its decision; the end check tests nothing", label)
	}
}

// TestStateCraftedBackfill drives the hand-computed EASY scenario
// through the store and checks the decision-by-decision outputs of
// Schedule/AdvanceTo, including the backfill hold on job D.
func TestStateCraftedBackfill(t *testing.T) {
	tr, est := craftedTrace()
	st, err := NewState(Options{Policy: EASY(core.SLocW), Estimator: est, CoresPerSocket: 6})
	if err != nil {
		t.Fatal(err)
	}
	st.AddNode()
	for _, j := range tr.Jobs {
		if _, err := st.Submit(j.Workflow, j.ArrivalSeconds); err != nil {
			t.Fatal(err)
		}
	}
	step, err := st.AdvanceTo(3)
	if err != nil {
		t.Fatal(err)
	}
	// By t=3: A started at 0, C backfilled at 2, B blocked, D held.
	if len(step.Placed) != 2 || step.Placed[0].JobID != 0 || step.Placed[1].JobID != 2 {
		t.Fatalf("placements by t=3: %+v, want jobs 0 then 2", step.Placed)
	}
	if got := st.Snapshot(); !reflect.DeepEqual(got.Queue, []int{1, 3}) {
		t.Fatalf("queue at t=3: %v, want [1 3]", got.Queue)
	}
	step, err = st.AdvanceTo(10)
	if err != nil {
		t.Fatal(err)
	}
	// C ends at 7 (D must stay held), A ends at 10, B starts at 10.
	if len(step.Completed) != 2 || step.Completed[0].ID != 2 || step.Completed[1].ID != 0 {
		t.Fatalf("completions by t=10: %+v, want jobs 2 then 0", step.Completed)
	}
	// B takes the whole node at its t=10 reservation; D still waits.
	if len(step.Placed) != 1 || step.Placed[0].JobID != 1 {
		t.Fatalf("placements by t=10: %+v, want job 1 only", step.Placed)
	}
	if b, _ := st.Job(1); b.StartSeconds != 10 {
		t.Errorf("B started at %g, want 10", b.StartSeconds)
	}
	// D fits once B completes at t=18.
	step, err = st.AdvanceTo(18)
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Placed) != 1 || step.Placed[0].JobID != 3 || step.Placed[0].StartSeconds != 18 {
		t.Fatalf("placements by t=18: %+v, want job 3 at t=18", step.Placed)
	}
}

// TestStateWaitsWithoutNodes: a submitted job queues until a node
// registers — the one deliberate divergence from Simulate, which
// rejects a nodeless cluster outright.
func TestStateWaitsWithoutNodes(t *testing.T) {
	_, est := craftedTrace()
	st, err := NewState(Options{Policy: EASY(core.SLocW), Estimator: est, CoresPerSocket: 6})
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.Submit(workloads.GTCReadOnly(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	step, err := st.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Placed) != 0 {
		t.Fatalf("placed %v with no nodes registered", step.Placed)
	}
	if st.AddNode() != 0 {
		t.Fatal("first node ID != 0")
	}
	step, err = st.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Placed) != 1 || step.Placed[0].JobID != id {
		t.Fatalf("after AddNode: placed %+v, want job %d", step.Placed, id)
	}
}

// TestStateZeroDurationSettles: a zero-duration placement completes at
// the same instant and frees the queue behind it within one Schedule
// call, mirroring the engine's same-instant event cascade.
func TestStateZeroDurationSettles(t *testing.T) {
	a := workloads.GTCReadOnly(6)
	est := fakeEst{dur: map[string]float64{a.Name: 0}}
	st, err := NewState(Options{Policy: FCFS(core.SLocW), Estimator: est, CoresPerSocket: 6})
	if err != nil {
		t.Fatal(err)
	}
	st.AddNode()
	for i := 0; i < 3; i++ {
		if _, err := st.Submit(a, 0); err != nil {
			t.Fatal(err)
		}
	}
	step, err := st.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Placed) != 3 || len(step.Completed) != 3 {
		t.Fatalf("placed %d completed %d, want 3 and 3", len(step.Placed), len(step.Completed))
	}
	if st.Now() != 0 {
		t.Errorf("clock moved to %g during a same-instant settle", st.Now())
	}
}

// TestStateArrivalClamping: past arrivals clamp to the clock, future
// arrivals park until AdvanceTo reaches them, and the clock cannot run
// backwards.
func TestStateArrivalClamping(t *testing.T) {
	tr, est := craftedTrace()
	st, err := NewState(Options{Policy: FCFS(core.SLocW), Estimator: est, CoresPerSocket: 6})
	if err != nil {
		t.Fatal(err)
	}
	st.AddNode()
	if _, err := st.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AdvanceTo(4); err == nil {
		t.Fatal("AdvanceTo accepted a backwards clock move")
	}
	past, err := st.Submit(tr.Jobs[0].Workflow, 1)
	if err != nil {
		t.Fatal(err)
	}
	if js, _ := st.Job(past); js.ArrivalSeconds != 5 {
		t.Errorf("past arrival recorded as %g, want clamped to 5", js.ArrivalSeconds)
	}
	fut, err := st.Submit(tr.Jobs[2].Workflow, 30)
	if err != nil {
		t.Fatal(err)
	}
	if js, _ := st.Job(fut); js.Phase != JobFuture {
		t.Errorf("future job phase %s, want %s", js.Phase, JobFuture)
	}
	if _, err := st.AdvanceTo(30); err != nil {
		t.Fatal(err)
	}
	if js, _ := st.Job(fut); js.Phase == JobFuture {
		t.Error("future job still parked after the clock passed its arrival")
	}
}

// TestStateSubmitValidation: invalid workflows and socket-overflowing
// rank counts are rejected at submission.
func TestStateSubmitValidation(t *testing.T) {
	_, est := craftedTrace()
	st, err := NewState(Options{Policy: FCFS(core.SLocW), Estimator: est, CoresPerSocket: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(workflow.Spec{}, 0); err == nil {
		t.Error("Submit accepted an invalid workflow")
	}
	if _, err := st.Submit(workloads.GTCReadOnly(7), 0); err == nil {
		t.Error("Submit accepted 7 ranks on 6-core sockets")
	}
}

// TestStateCandidates: the filter query lists fitting nodes in
// ascending ID order and honors the cap.
func TestStateCandidates(t *testing.T) {
	a := workloads.GTCReadOnly(4)
	est := fakeEst{dur: map[string]float64{a.Name: 50}}
	st, err := NewState(Options{Policy: FCFS(core.SLocW), Estimator: est, CoresPerSocket: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		st.AddNode()
	}
	if got := st.candidates(4, stateCandidateCap); len(got) != stateCandidateCap || got[0] != 0 {
		t.Fatalf("candidates(4, cap) = %v, want %d ascending IDs from 0", got, stateCandidateCap)
	}
	if got := st.candidates(4, 3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("candidates(4, 3) = %v, want [0 1 2]", got)
	}
	// Fill node 0; it must drop out of the candidate set.
	if _, err := st.Submit(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Schedule(); err != nil {
		t.Fatal(err)
	}
	if got := st.candidates(4, 3); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("candidates(4, 3) after filling node 0 = %v, want [1 2 3]", got)
	}
}

// TestStatePlacedCandidates: each committed placement carries the
// pre-pass filter evidence.
func TestStatePlacedCandidates(t *testing.T) {
	a := workloads.GTCReadOnly(4)
	est := fakeEst{dur: map[string]float64{a.Name: 50}}
	st, err := NewState(Options{Policy: FCFS(core.SLocW), Estimator: est, CoresPerSocket: 6})
	if err != nil {
		t.Fatal(err)
	}
	st.AddNode()
	st.AddNode()
	if _, err := st.Submit(a, 0); err != nil {
		t.Fatal(err)
	}
	step, err := st.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Placed) != 1 {
		t.Fatalf("placed %d jobs, want 1", len(step.Placed))
	}
	if p := step.Placed[0]; p.Node != 0 || !reflect.DeepEqual(p.Candidates, []int{0, 1}) {
		t.Fatalf("placement %+v: want node 0 with candidates [0 1]", p)
	}
}

// TestIndexAdd: the grown index answers first-fit queries identically
// to a linear scan over its counts.
func TestIndexAdd(t *testing.T) {
	ix := newFreeIndex(0, 6)
	firstFit := func(ranks int) int {
		first := -1
		ix.eachFit(ranks, -1, func(id int) bool {
			first = id
			return false
		})
		return first
	}
	if got := firstFit(1); got != -1 {
		t.Fatalf("empty index firstFit = %d, want -1", got)
	}
	for i := 0; i < 130; i++ {
		if id := ix.add(); id != i {
			t.Fatalf("add() returned %d, want %d", id, i)
		}
		if f := ix.free[i]; f != 6 {
			t.Fatalf("added node %d holds %d free cores, want 6", i, f)
		}
	}
	// Knock nodes to varied free levels and cross-check against the
	// free array directly.
	for i := 0; i < 130; i++ {
		ix.setFree(i, i%7)
	}
	for ranks := 0; ranks <= 6; ranks++ {
		want := -1
		for i := 0; i < 130; i++ {
			if ix.free[i] >= ranks {
				want = i
				break
			}
		}
		if got := firstFit(ranks); got != want {
			t.Errorf("firstFit(%d) = %d, want %d", ranks, got, want)
		}
	}
}

// TestStateSnapshotIsDetached: mutating the store after Snapshot must
// not change the snapshot.
func TestStateSnapshotIsDetached(t *testing.T) {
	tr, est := craftedTrace()
	st, err := NewState(Options{Policy: EASY(core.SLocW), Estimator: est, CoresPerSocket: 6})
	if err != nil {
		t.Fatal(err)
	}
	st.AddNode()
	for _, j := range tr.Jobs {
		if _, err := st.Submit(j.Workflow, j.ArrivalSeconds); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	queue := append([]int(nil), snap.Queue...)
	running := len(snap.Nodes[0].Running)
	if _, err := st.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Queue, queue) || len(snap.Nodes[0].Running) != running {
		t.Fatal("snapshot aliased live store state")
	}
	if snap.Submitted != 4 || snap.Completed != 0 || snap.Running != 2 {
		t.Fatalf("snapshot at t=3: %+v, want 4 submitted / 2 running / 0 completed", snap)
	}
}
