package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// Property-based coverage: several hundred seeded random traces are
// pushed through every policy with the interference and fault models
// independently on and off, and structural invariants that must hold
// for ANY schedule are checked — conservation (no job lost or
// duplicated), causality (nothing starts before it arrives or ends
// before it starts), accounting identities (goodput is exactly the
// demand of the completed jobs), monotone event timestamps, and
// byte-determinism of the serialized report across fresh reruns.

// propertyCatalog is the workload mix the random traces sample from:
// ranks 2-8 against 8-core sockets, one bandwidth-heavy streaming
// workload so the interference model binds.
func propertyCatalog() ([]workflow.Spec, fakeEst) {
	specs := []workflow.Spec{
		workloads.GTCReadOnly(2),
		workloads.GTCReadOnly(8),
		workloads.GTCMatrixMult(4),
		workloads.MiniAMRReadOnly(4),
		workloads.MiniAMRMatrixMult(8),
		workloads.MicroWorkflow(64<<20, 4),
	}
	est := fakeEst{
		dur: map[string]float64{
			specs[0].Name: 12,
			specs[1].Name: 45,
			specs[2].Name: 30,
			specs[3].Name: 8,
			specs[4].Name: 60,
			specs[5].Name: 25,
		},
		prof: map[string]JobProfile{
			// The streaming job saturates a socket on its own (its write
			// demand exceeds the Gen-1 13.9 GB/s budget); the others
			// barely load it.
			specs[5].Name: {IOFraction: 0.8, ReadBytesPerSecond: 1.5e10, WriteBytesPerSecond: 1.5e10},
			specs[1].Name: {IOFraction: 0.2, ReadBytesPerSecond: 4e8, WriteBytesPerSecond: 4e8},
		},
	}
	return specs, est
}

func propertyPolicies() []Policy {
	return []Policy{
		FCFS(core.SLocW),
		EASY(core.SLocW),
		PMEMAware(),
		PMEMAwareInterferenceAware(),
	}
}

// simulateFresh rebuilds the trace and runs it from scratch, so two
// calls share no state at all.
func simulateFresh(t *testing.T, seed int64, opt Options) (*Metrics, Trace) {
	t.Helper()
	catalog, _ := propertyCatalog()
	tr, err := Synthetic(catalog, SyntheticConfig{Jobs: 12, MeanInterarrivalSeconds: 15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// linearRef is the brute-force reference for the engine's fleet-scale
// shortcuts, wrapped around a policy. At the start of every pass it
// checks the free-capacity index against scans of the node views (each
// node's free cores and the first-fit answer for every rank count).
// It then hides the index, so every capacity query the policy makes
// takes the linear node scan, and swaps the copy-on-write view for
// private deep copies (no clone slots), so tentative placements land
// on nodes the engine never reads. After the policy returns it records each node's
// Cores - FreeAt(Now) under the pass's placements.
type linearRef struct {
	t     *testing.T
	inner Policy
	occ   [][]int // per pass: the node-scan occupancy after its placements
}

func (r *linearRef) Name() string { return r.inner.Name() }

func (r *linearRef) Schedule(ctx *SchedContext) ([]Placement, error) {
	for _, n := range ctx.Nodes {
		if got, want := ctx.idx.free[n.ID], n.FreeAt(ctx.Now); got != want {
			r.t.Errorf("t=%g: index holds %d free cores on node %d, node scan %d", ctx.Now, got, n.ID, want)
		}
	}
	for ranks := 0; ranks <= ctx.idx.cores; ranks++ {
		want := -1
		for _, n := range ctx.Nodes {
			if n.FreeAt(ctx.Now) >= ranks {
				want = n.ID
				break
			}
		}
		if got := ctx.firstFit(ranks, 0, -1); got != want {
			r.t.Errorf("t=%g: index first fit for %d ranks is node %d, node scan %d", ctx.Now, ranks, got, want)
		}
	}
	ctx.idx = nil
	private := make([]*NodeView, len(ctx.Nodes))
	for i, n := range ctx.Nodes {
		cl := *n
		cl.Running = append([]RunningJob(nil), n.Running...)
		private[i] = &cl
	}
	ctx.Nodes, ctx.clones = private, nil
	placed, err := r.inner.Schedule(ctx)
	row := make([]int, len(ctx.Nodes))
	for i, n := range ctx.Nodes {
		row[i] = n.Cores - n.FreeAt(ctx.Now)
	}
	r.occ = append(r.occ, row)
	return placed, err
}

// checkLinearRef reruns opt under linearRef and demands the indexed
// run's report bytes, plus a utilization series — sampled from the
// engine's incrementally kept occupancy array — equal to the
// reference's node scans pass by pass. opt must not drop the series
// (SummaryOnly).
func checkLinearRef(t *testing.T, label string, opt Options, indexed *Metrics, run func(Options) *Metrics) {
	t.Helper()
	ref := &linearRef{t: t, inner: opt.Policy}
	opt.Policy = ref
	if err := linearRefMismatch(indexed, run(opt), ref); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// linearRefMismatch compares an indexed run with its linearRef rerun.
func linearRefMismatch(indexed, lin *Metrics, ref *linearRef) error {
	var want, got bytes.Buffer
	if err := indexed.WriteJSON(&want); err != nil {
		return err
	}
	if err := lin.WriteJSON(&got); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("indexed and linear-reference runs produced different report bytes")
	}
	if len(lin.Series) != len(ref.occ) {
		return fmt.Errorf("%d utilization samples for %d passes", len(lin.Series), len(ref.occ))
	}
	for i, s := range lin.Series {
		if !reflect.DeepEqual(s.CoresInUse, ref.occ[i]) {
			return fmt.Errorf("pass %d at t=%g: occupancy array %v, node scan %v", i, s.TimeSeconds, s.CoresInUse, ref.occ[i])
		}
	}
	return nil
}

// cowLeak is a policy wrapper that breaks the engine's copy-on-write
// view the way a faulty clone would: it takes the clone slots away,
// so the policy's tentative placements write straight into the
// engine's authoritative nodes.
type cowLeak struct{ inner Policy }

func (c cowLeak) Name() string { return c.inner.Name() }

func (c cowLeak) Schedule(ctx *SchedContext) ([]Placement, error) {
	ctx.clones = nil
	return c.inner.Schedule(ctx)
}

// TestLinearRefCatchesCOWLeak: the reference runs the policy on
// private node copies, so a copy-on-write leak — tentative placements
// reaching the engine's nodes, where the commit then places each job a
// second time — cannot reach the reference run, which still matches a
// clean indexed run, while the leaky indexed run departs from it.
func TestLinearRefCatchesCOWLeak(t *testing.T) {
	small, big := workloads.GTCReadOnly(4), workloads.GTCReadOnly(12)
	est := fakeEst{dur: map[string]float64{small.Name: 10, big.Name: 5}}
	// The small job takes 4 of 16 cores at t=0 and the big one needs
	// 12 at t=1: it fits at once unless a leaked copy of the small job
	// holds 4 more cores.
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: small, ArrivalSeconds: 0},
		{ID: 1, Workflow: big, ArrivalSeconds: 1},
	}}
	opt := Options{Nodes: 1, CoresPerSocket: 16, Policy: FCFS(core.SLocW), Estimator: est}
	clean, err := Simulate(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := &linearRef{t: t, inner: cowLeak{opt.Policy}}
	lin, err := Simulate(tr, Options{Nodes: 1, CoresPerSocket: 16, Policy: ref, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	if err := linearRefMismatch(clean, lin, ref); err != nil {
		t.Fatalf("the leak reached the reference run: %v", err)
	}
	leaky, err := Simulate(tr, Options{Nodes: 1, CoresPerSocket: 16, Policy: cowLeak{opt.Policy}, Estimator: est})
	if err == nil {
		err = linearRefMismatch(leaky, lin, ref)
	}
	if err == nil {
		t.Fatal("the leaky indexed run matched the reference")
	}
}

func checkInvariants(t *testing.T, label string, m *Metrics, tr Trace, opt Options) {
	t.Helper()
	retry := opt.retry()
	if len(m.Records) != len(tr.Jobs) {
		t.Fatalf("%s: %d records for %d jobs", label, len(m.Records), len(tr.Jobs))
	}
	_, est := propertyCatalog()
	seen := make(map[int]bool, len(m.Records))
	var goodput, badput float64
	completed, failed, attempts := 0, 0, 0
	for _, r := range m.Records {
		if seen[r.ID] {
			t.Fatalf("%s: job %d recorded twice", label, r.ID)
		}
		seen[r.ID] = true
		arr := tr.Jobs[r.ID].ArrivalSeconds
		if r.StartSeconds < arr-1e-9 {
			t.Errorf("%s: job %d started at %g before its arrival %g", label, r.ID, r.StartSeconds, arr)
		}
		if r.EndSeconds < r.StartSeconds-1e-9 {
			t.Errorf("%s: job %d ended at %g before its start %g", label, r.ID, r.EndSeconds, r.StartSeconds)
		}
		if !close9(r.WaitSeconds, r.StartSeconds-arr) || !close9(r.TurnaroundSeconds, r.EndSeconds-arr) {
			t.Errorf("%s: job %d wait/turnaround inconsistent with start/end/arrival", label, r.ID)
		}
		if math.IsNaN(r.BoundedSlowdown) || math.IsInf(r.BoundedSlowdown, 0) || r.BoundedSlowdown < 1 {
			t.Errorf("%s: job %d bounded slowdown %v, want finite >= 1", label, r.ID, r.BoundedSlowdown)
		}
		if opt.Interference.Enabled || opt.Faults.Enabled {
			if want := est.dur[r.Workflow]; !close9(r.StandaloneSeconds, want) {
				t.Errorf("%s: job %d standalone %g, want its demand %g", label, r.ID, r.StandaloneSeconds, want)
			}
		}
		if opt.Interference.Enabled && !r.Failed && r.Stretch < 1-1e-9 {
			t.Errorf("%s: job %d stretch %g < 1", label, r.ID, r.Stretch)
		}
		if opt.Faults.Enabled {
			if r.Attempts < 1 || r.Attempts > retry.MaxAttempts {
				t.Errorf("%s: job %d attempts %d outside [1, %d]", label, r.ID, r.Attempts, retry.MaxAttempts)
			}
			if r.Failed && r.Attempts != retry.MaxAttempts {
				t.Errorf("%s: job %d failed after %d attempts, budget %d", label, r.ID, r.Attempts, retry.MaxAttempts)
			}
			if r.WastedStandaloneSeconds < -1e-9 {
				t.Errorf("%s: job %d negative wasted work %g", label, r.ID, r.WastedStandaloneSeconds)
			}
			attempts += r.Attempts
			badput += r.WastedStandaloneSeconds
			if r.Failed {
				failed++
			} else {
				completed++
				goodput += r.StandaloneSeconds
			}
		} else if r.Attempts != 0 || r.Failed || r.WastedStandaloneSeconds != 0 {
			t.Errorf("%s: job %d carries fault fields with the model off", label, r.ID)
		}
	}
	s := m.Summary()
	if opt.Faults.Enabled {
		if s.CompletedJobs != completed || s.FailedJobs != failed || s.TotalAttempts != attempts {
			t.Errorf("%s: summary completed/failed/attempts %d/%d/%d, records say %d/%d/%d",
				label, s.CompletedJobs, s.FailedJobs, s.TotalAttempts, completed, failed, attempts)
		}
		if !close9(s.GoodputStandaloneSeconds, goodput) || !close9(s.BadputStandaloneSeconds, badput) {
			t.Errorf("%s: summary goodput/badput %g/%g, records sum to %g/%g",
				label, s.GoodputStandaloneSeconds, s.BadputStandaloneSeconds, goodput, badput)
		}
	}
	for i := 1; i < len(m.Series); i++ {
		if m.Series[i].TimeSeconds < m.Series[i-1].TimeSeconds {
			t.Fatalf("%s: utilization series goes backwards at sample %d (%g after %g)",
				label, i, m.Series[i].TimeSeconds, m.Series[i-1].TimeSeconds)
		}
	}
}

// closeRel is a relative-error comparison for values that may differ
// by floating-point association (SummaryOnly's completion-order sums).
func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Abs(a) + math.Abs(b)
	return math.Abs(a-b) <= 1e-6*scale
}

// TestPropertyRandomTraces is the main property sweep: 50 seeds x 4
// policies x {plain, interference, faults, both} = 800 simulations,
// each validated structurally and each rerun from scratch to confirm
// the serialized report is byte-identical.
func TestPropertyRandomTraces(t *testing.T) {
	variants := []struct {
		name string
		opt  func(seed int64) Options
	}{
		{"plain", func(int64) Options { return Options{} }},
		{"interference", func(int64) Options { return Options{Interference: DefaultInterference()} }},
		{"faults", func(seed int64) Options {
			o := Options{Faults: RandomFaults(180, 40, seed)}
			if seed%2 == 0 {
				r := DefaultRetry()
				r.CheckpointIntervalSeconds = 15
				o.Retry = r
			}
			return o
		}},
		{"both", func(seed int64) Options {
			return Options{Interference: DefaultInterference(), Faults: RandomFaults(240, 30, seed+1)}
		}},
	}
	stretched := 0
	for seed := int64(0); seed < 50; seed++ {
		for _, pol := range propertyPolicies() {
			for _, v := range variants {
				label := fmt.Sprintf("seed %d, %s, %s", seed, pol.Name(), v.name)
				opt := v.opt(seed)
				opt.Nodes = 2
				opt.CoresPerSocket = 8
				opt.Policy = pol
				_, est := propertyCatalog()
				opt.Estimator = est
				m, tr := simulateFresh(t, seed, opt)
				checkInvariants(t, label, m, tr, opt)
				if m.Summary().MaxStretch > 1.05 { // beyond float noise
					stretched++
				}

				var first, second bytes.Buffer
				if err := m.WriteJSON(&first); err != nil {
					t.Fatal(err)
				}
				m2, _ := simulateFresh(t, seed, opt)
				if err := m2.WriteJSON(&second); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("%s: fresh rerun produced different report bytes", label)
				}

				// The indexed free-capacity view and the occupancy array must
				// be exact drop-ins for the linear all-nodes scans.
				checkLinearRef(t, label, opt, m, func(o Options) *Metrics {
					lin, _ := simulateFresh(t, seed, o)
					return lin
				})
			}
		}
	}
	if stretched == 0 {
		t.Error("no interference run stretched a job: the catalog never exercises contention")
	}
}
