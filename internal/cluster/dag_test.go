package cluster

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/units"
	"pmemsched/internal/workflow"
)

func testDAGSpec() workflow.DAGSpec {
	return workflow.DAGSpec{
		Name:       "pipe",
		Iterations: 2,
		Stages: []workflow.StageSpec{
			{Name: "sim", Ranks: 8, Component: workflow.ComponentSpec{
				Name: "sim", ComputePerIteration: 0.2,
				Objects: []workflow.ObjectSpec{{Bytes: 1 * units.MiB, CountPerRank: 2}},
			}},
			{Name: "ana", Ranks: 4, Component: workflow.ComponentSpec{
				Name: "ana", ComputePerObject: 0.0005,
			}},
		},
		Edges: []workflow.EdgeSpec{{From: "sim", To: "ana"}},
	}
}

func dagJob(d workflow.DAGSpec, id int, arrival float64) Job {
	dd := d
	return Job{ID: id, Workflow: d.Envelope(), DAG: &dd, ArrivalSeconds: arrival}
}

// --- AdvanceTo target validation (regression: a NaN or backwards
// target used to corrupt the clock instead of erroring) ---

func TestAdvanceToRejectsInvalidTargets(t *testing.T) {
	st, err := NewState(Options{Policy: PMEMAware(), Estimator: variedEst{}})
	if err != nil {
		t.Fatal(err)
	}
	st.AddNode()
	if _, err := st.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 99} {
		_, err := st.AdvanceTo(target)
		if err == nil {
			t.Fatalf("AdvanceTo(%g) accepted", target)
		}
		if !errors.Is(err, ErrInvalidAdvance) {
			t.Fatalf("AdvanceTo(%g) error %v is not ErrInvalidAdvance", target, err)
		}
	}
	// The failed calls must not have moved or corrupted the clock.
	if st.Now() != 100 {
		t.Fatalf("clock moved to %g after rejected advances", st.Now())
	}
	// Re-advancing to the current time is legal (idempotent settle).
	if _, err := st.AdvanceTo(100); err != nil {
		t.Fatalf("AdvanceTo(now) rejected: %v", err)
	}
}

// --- DAG trace JSON ---

func TestDAGTraceRoundTrip(t *testing.T) {
	d := testDAGSpec()
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: d.Envelope(), DAG: &d, ArrivalSeconds: 0},
		{ID: 1, Workflow: workflow.Couple("pair", workflow.ComponentSpec{
			Name: "s", ComputePerIteration: 0.1,
			Objects: []workflow.ObjectSpec{{Bytes: 64, CountPerRank: 1}},
		}, workflow.AnalyticsKernel{Name: "a"}, 4, 2), ArrivalSeconds: 3.5},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := WriteTrace(&first, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Jobs[0].DAG == nil {
		t.Fatal("dag entry lost its DAG on round trip")
	}
	if !reflect.DeepEqual(*tr2.Jobs[0].DAG, d) {
		t.Fatalf("dag drifted:\n got %+v\nwant %+v", *tr2.Jobs[0].DAG, d)
	}
	if tr2.Jobs[1].DAG != nil {
		t.Fatal("pair entry grew a DAG")
	}
	var second bytes.Buffer
	if err := WriteTrace(&second, tr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("dag trace round trip is not byte-idempotent")
	}
}

func TestDAGTraceRejectsMalformedEntries(t *testing.T) {
	both := `{"jobs": [{"arrival_seconds": 0,
	  "workflow": {"name": "w", "ranks": 1, "iterations": 1,
	    "simulation": {"name": "s", "objects": [{"bytes": 1, "count_per_rank": 1}]},
	    "analytics": {"name": "a"}},
	  "dag": {"name": "d", "iterations": 1,
	    "stages": [{"name": "x", "ranks": 1, "objects": [{"bytes": 1, "count_per_rank": 1}]},
	               {"name": "y", "ranks": 1}],
	    "edges": [{"from": "x", "to": "y"}]}}]}`
	if _, err := ReadTrace(strings.NewReader(both)); err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("both-entries trace error = %v", err)
	}
	neither := `{"jobs": [{"arrival_seconds": 0}]}`
	if _, err := ReadTrace(strings.NewReader(neither)); err == nil || !strings.Contains(err.Error(), "neither") {
		t.Fatalf("neither-entry trace error = %v", err)
	}
}

func TestValidateJobEnvelopeConsistency(t *testing.T) {
	d := testDAGSpec()
	good := dagJob(d, 0, 0)
	if err := validateJob(good); err != nil {
		t.Fatalf("consistent dag job rejected: %v", err)
	}
	renamed := good
	env := renamed.Workflow
	env.Name = "other"
	renamed.Workflow = env
	if err := validateJob(renamed); err == nil || !strings.Contains(err.Error(), "envelope named") {
		t.Fatalf("renamed envelope error = %v", err)
	}
	narrow := good
	env = narrow.Workflow
	env.Ranks = 2
	narrow.Workflow = env
	if err := validateJob(narrow); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("narrow envelope error = %v", err)
	}
	if err := (Trace{Jobs: []Job{renamed}}).Validate(); err == nil {
		t.Fatal("trace validation missed the inconsistent envelope")
	}
}

// --- DAG scheduling ---

func TestSyntheticDAGDeterministic(t *testing.T) {
	d := testDAGSpec()
	cfg := SyntheticConfig{Jobs: 5, MeanInterarrivalSeconds: 30, Seed: 7}
	tr, err := SyntheticDAG(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 5 {
		t.Fatalf("%d jobs", len(tr.Jobs))
	}
	for _, j := range tr.Jobs {
		if j.DAG == nil {
			t.Fatalf("job %d has no DAG", j.ID)
		}
	}
	again, err := SyntheticDAG(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Jobs {
		if tr.Jobs[i].ArrivalSeconds != again.Jobs[i].ArrivalSeconds {
			t.Fatalf("job %d arrival drifted across runs", i)
		}
	}
	if _, err := SyntheticDAG(d, SyntheticConfig{Jobs: 0, MeanInterarrivalSeconds: 1}); err == nil {
		t.Fatal("zero job count accepted")
	}
}

func TestSimulateDAGTrace(t *testing.T) {
	d := testDAGSpec()
	tr, err := SyntheticDAG(d, SyntheticConfig{Jobs: 4, MeanInterarrivalSeconds: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRunner(core.DefaultEnv(), 2)
	m, err := Simulate(tr, Options{Nodes: 2, Policy: PMEMAware(), Estimator: NewEstimator(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 4 {
		t.Fatalf("%d job records", len(m.Records))
	}
	de := NewEstimator(rt).(DAGEstimator)
	cfg, err := de.RecommendDAG(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := de.EstimateDAG(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range m.Records {
		if j.Workflow != d.Name {
			t.Fatalf("job record names %q", j.Workflow)
		}
		// end-start re-associates the float sum, so compare to a ulp.
		if got := j.EndSeconds - j.StartSeconds; math.Abs(got-want) > 1e-9*want {
			t.Fatalf("dag job ran %g seconds, estimator says %g", got, want)
		}
	}
	// Byte-identical rerun through a fresh runner.
	m2, err := Simulate(tr, Options{Nodes: 2, Policy: PMEMAware(), Estimator: NewEstimator(core.NewRunner(core.DefaultEnv(), 4))})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := m.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("dag simulation is not byte-identical across runners")
	}
}

// A canned estimator without the DAGEstimator extension must be
// rejected loudly, never silently priced off the envelope.
func TestDAGJobNeedsDAGEstimator(t *testing.T) {
	d := testDAGSpec()
	tr, err := SyntheticDAG(d, SyntheticConfig{Jobs: 1, MeanInterarrivalSeconds: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Simulate(tr, Options{Nodes: 1, Policy: PMEMAware(), Estimator: variedEst{}})
	if err == nil || !strings.Contains(err.Error(), "cannot price DAGs") {
		t.Fatalf("plain-estimator error = %v", err)
	}
}
