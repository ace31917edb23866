package cluster

import (
	"bytes"
	"math"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workloads"
)

// ivTestModel is a small hand-checkable contention model: 15 GB/s of
// write budget per socket, reads effectively unconstrained.
func ivTestModel() Interference {
	return Interference{Enabled: true, ReadBandwidthPerSocket: 1e12, WriteBandwidthPerSocket: 15e9}
}

func TestOverloadFactorAndRate(t *testing.T) {
	iv := ivTestModel()
	if f := iv.overloadFactor(5e9, 10e9); f != 1 {
		t.Errorf("under budget: factor %g, want 1", f)
	}
	if f := iv.overloadFactor(0, 30e9); math.Abs(f-2) > 1e-12 {
		t.Errorf("write 2x over budget: factor %g, want 2", f)
	}
	// A pure-compute profile never dilates, whatever the factor.
	if r := iv.rate(JobProfile{IOFraction: 0}, 3); r != 1 {
		t.Errorf("compute-only profile: rate %g, want 1", r)
	}
	// A half-I/O profile at factor 2 runs at 1/(0.5 + 0.5*2) = 2/3.
	if r := iv.rate(JobProfile{IOFraction: 0.5}, 2); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("half-I/O at factor 2: rate %g, want 2/3", r)
	}
}

func TestProfileFromResult(t *testing.T) {
	wf := workloads.MicroWorkflow(64<<20, 8)
	res := core.Result{TotalSeconds: 10}
	res.Writer.IO = 3
	res.Reader.IO = 2
	p := ProfileFromResult(wf, core.SLocW, res)
	wantBytes := float64(wf.Simulation.BytesPerRank()) * float64(wf.Ranks) * float64(wf.Iterations)
	if math.Abs(p.WriteBytesPerSecond-wantBytes/10) > 1e-6 || p.ReadBytesPerSecond != p.WriteBytesPerSecond {
		t.Errorf("demand %g/%g, want %g both ways", p.WriteBytesPerSecond, p.ReadBytesPerSecond, wantBytes/10)
	}
	if math.Abs(p.IOFraction-0.5) > 1e-12 {
		t.Errorf("IO fraction %g, want 0.5", p.IOFraction)
	}
	if p.DeviceSocket != int(core.SLocW.Deployment().DeviceSocket) {
		t.Errorf("device socket %d", p.DeviceSocket)
	}
	// Degenerate results produce the zero-demand profile, not NaNs.
	if z := ProfileFromResult(wf, core.SLocW, core.Result{}); z.WriteBytesPerSecond != 0 || z.IOFraction != 0 {
		t.Errorf("zero result: profile %+v", z)
	}
}

// TestFluidReflowHandComputed pins the reflow engine to a scenario
// small enough to solve by hand. One 6-core node, write budget 15 GB/s.
// Job X (4 ranks, 10s standalone, half I/O, 10 GB/s) starts at t=0;
// job Y (2 ranks, same shape) arrives at t=2. From t=2 the socket sees
// 20 GB/s demand, factor 4/3, so both run at rate 1/(0.5+0.5*4/3) =
// 6/7. X finishes its remaining 8 standalone-seconds at t = 2 + 28/3 =
// 34/3; Y then runs alone at full rate, having banked 8
// standalone-seconds, and finishes at 34/3 + 2 = 40/3.
func TestFluidReflowHandComputed(t *testing.T) {
	x := workloads.GTCReadOnly(4)
	y := workloads.GTCMatrixMult(2)
	prof := JobProfile{IOFraction: 0.5, ReadBytesPerSecond: 10e9, WriteBytesPerSecond: 10e9, DeviceSocket: 0}
	est := fakeEst{
		dur:  map[string]float64{x.Name: 10, y.Name: 10},
		prof: map[string]JobProfile{x.Name: prof, y.Name: prof},
	}
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: x, ArrivalSeconds: 0},
		{ID: 1, Workflow: y, ArrivalSeconds: 2},
	}}
	m, err := Simulate(tr, Options{
		Nodes: 1, CoresPerSocket: 6, Policy: FCFS(core.SLocW), Estimator: est,
		Interference: ivTestModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantEnd := []float64{34.0 / 3, 40.0 / 3}
	wantStretch := []float64{(34.0 / 3) / 10, (40.0/3 - 2) / 10}
	for i, r := range m.Records {
		if math.Abs(r.EndSeconds-wantEnd[i]) > 1e-9 {
			t.Errorf("job %d end %.9f, want %.9f", i, r.EndSeconds, wantEnd[i])
		}
		if math.Abs(r.Stretch-wantStretch[i]) > 1e-9 {
			t.Errorf("job %d stretch %.9f, want %.9f", i, r.Stretch, wantStretch[i])
		}
		if r.StandaloneSeconds != 10 {
			t.Errorf("job %d standalone %.9f, want 10", i, r.StandaloneSeconds)
		}
	}
	s := m.Summary()
	if !s.Interference || s.MaxStretch <= 1 {
		t.Errorf("summary %+v: want interference on with max stretch > 1", s)
	}
}

// TestReflowDeterministic: with the interference model on, equal
// traces, policies and options must produce byte-identical JSON
// reports — the reflow engine adds no nondeterminism.
func TestReflowDeterministic(t *testing.T) {
	tr, err := Synthetic(workloads.Suite(), SyntheticConfig{Jobs: 20, MeanInterarrivalSeconds: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRunner(core.DefaultEnv(), 0)
	for _, pol := range []func() Policy{
		func() Policy { return EASY(core.SLocW) },
		func() Policy { return EASYInterferenceAware(core.SLocW) },
		func() Policy { return PMEMAwareInterferenceAware() },
	} {
		var outs [2][]byte
		for i := range outs {
			m, err := Simulate(tr, Options{
				Nodes: 2, Policy: pol(), Estimator: NewEstimator(rt),
				Interference: DefaultInterference(),
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			outs[i] = buf.Bytes()
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Errorf("%s: two identical interference-on runs differ", pol().Name())
		}
	}
}

// TestReflowKeepsRatesCurrent pins the reflow's skip of clean sockets
// as exact: over random interference traces, with and without faults,
// after every engine step each resident's rate equals a fresh
// evaluation of its node's socket rates, bit for bit. A placement or
// completion that failed to mark its socket dirty would leave the
// socket's other residents at a stale rate.
func TestReflowKeepsRatesCurrent(t *testing.T) {
	stretched := 0
	for seed := int64(0); seed < 40; seed++ {
		for _, pol := range propertyPolicies() {
			for _, faults := range []bool{false, true} {
				catalog, _ := propertyCatalog()
				tr, err := Synthetic(catalog, SyntheticConfig{Jobs: 30, MeanInterarrivalSeconds: 6, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				// variedEst spreads jobs over both device sockets with
				// demands that exceed the Gen-1 budgets.
				opt := Options{Nodes: 2, CoresPerSocket: 8, Policy: pol, Estimator: variedEst{}, Interference: DefaultInterference()}
				if faults {
					opt.Faults = RandomFaults(240, 30, seed+1)
				}
				e, err := newEngine(opt)
				if err != nil {
					t.Fatal(err)
				}
				e.src = tr.Source()
				if err := e.pull(); err != nil {
					t.Fatal(err)
				}
				for e.src != nil || e.finished < len(e.states) {
					head, ok := e.events.peek()
					if !ok {
						t.Fatalf("seed %d, %s, faults %v: event heap drained with jobs unfinished", seed, pol.Name(), faults)
					}
					if _, err := e.step(head.at, false); err != nil {
						t.Fatal(err)
					}
					for _, n := range e.nodes {
						rates := n.socketRates(opt.Interference)
						for _, r := range n.Running {
							st := e.states[r.JobID]
							want := rates(st.profile)
							if math.Float64bits(st.rate) != math.Float64bits(want) {
								t.Fatalf("seed %d, %s, faults %v, t=%g: job %d on node %d runs at rate %v, its socket gives %v",
									seed, pol.Name(), faults, head.at, r.JobID, n.ID, st.rate, want)
							}
							if want < 1 {
								stretched++
							}
						}
					}
				}
			}
		}
	}
	if stretched == 0 {
		t.Fatal("no resident was ever stretched: the traces never exercise contention")
	}
}

// TestAwarePlacementSeparatesStreams: two bandwidth-bound jobs and two
// free nodes. First fit stacks both on node 0 and they dilate;
// interference-aware placement sends the second to node 1 and nobody
// dilates.
func TestAwarePlacementSeparatesStreams(t *testing.T) {
	x := workloads.GTCReadOnly(4)
	y := workloads.GTCMatrixMult(4)
	prof := JobProfile{IOFraction: 0.8, ReadBytesPerSecond: 10e9, WriteBytesPerSecond: 10e9, DeviceSocket: 0}
	est := fakeEst{
		dur:  map[string]float64{x.Name: 10, y.Name: 10},
		prof: map[string]JobProfile{x.Name: prof, y.Name: prof},
	}
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: x, ArrivalSeconds: 0},
		{ID: 1, Workflow: y, ArrivalSeconds: 1},
	}}
	for _, tc := range []struct {
		pol       Policy
		wantNodes [2]int
		dilated   bool
	}{
		{EASY(core.SLocW), [2]int{0, 0}, true},
		{EASYInterferenceAware(core.SLocW), [2]int{0, 1}, false},
	} {
		m, err := Simulate(tr, Options{
			Nodes: 2, CoresPerSocket: 8, Policy: tc.pol, Estimator: est,
			Interference: ivTestModel(),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.pol.Name(), err)
		}
		for i, r := range m.Records {
			if r.Node != tc.wantNodes[i] {
				t.Errorf("%s: job %d on node %d, want %d", tc.pol.Name(), i, r.Node, tc.wantNodes[i])
			}
		}
		if got := m.Summary().MaxStretch > 1+1e-12; got != tc.dilated {
			t.Errorf("%s: dilated = %v (max stretch %.6f), want %v", tc.pol.Name(), got, m.Summary().MaxStretch, tc.dilated)
		}
	}
}

// TestEarliestFitAfterMultipleCompletions: the head's reservation must
// wait for the SECOND completion when the first frees too few cores,
// and EASY must still backfill a short job into the gap without
// delaying the head.
//
// One 6-core node: A (4 ranks) runs 10s, B (2 ranks) runs 6s, both
// from t=0. C (6 ranks, arrives t=1) fits only when BOTH finish, so
// its reservation is t=10, not t=6. D (2 ranks, 3s, arrives t=2) can
// start at t=6 (after B) and end at 9 <= 10 without delaying C.
func TestEarliestFitAfterMultipleCompletions(t *testing.T) {
	a := workloads.GTCReadOnly(4)
	b := workloads.GTCMatrixMult(2)
	c := workloads.MiniAMRReadOnly(6)
	d := workloads.MiniAMRMatrixMult(2)
	est := fakeEst{dur: map[string]float64{a.Name: 10, b.Name: 6, c.Name: 5, d.Name: 3}}
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: a, ArrivalSeconds: 0},
		{ID: 1, Workflow: b, ArrivalSeconds: 0},
		{ID: 2, Workflow: c, ArrivalSeconds: 1},
		{ID: 3, Workflow: d, ArrivalSeconds: 2},
	}}
	m, err := Simulate(tr, Options{Nodes: 1, CoresPerSocket: 6, Policy: EASY(core.SLocW), Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	wantStart := []float64{0, 0, 10, 6}
	for i, r := range m.Records {
		if math.Abs(r.StartSeconds-wantStart[i]) > 1e-9 {
			t.Errorf("job %d starts at %.3f, want %.3f", i, r.StartSeconds, wantStart[i])
		}
	}

	// The NodeView primitive itself: with residents ending at 6 and 10,
	// a 6-rank job's earliest fit is 10 (the second completion).
	n := &NodeView{ID: 0, Cores: 6}
	n.place(0, 4, 10, 0, JobProfile{})
	n.place(1, 2, 6, 0, JobProfile{})
	if got := n.EarliestFit(1, 6, 0); got != 10 {
		t.Errorf("EarliestFit = %g, want 10", got)
	}
	if got := n.EarliestFit(1, 2, 0); got != 6 {
		t.Errorf("EarliestFit(2 ranks) = %g, want 6", got)
	}
}

// fleetEngine builds a 1k-node engine under the interference model
// whose nodes are full: each holds four 2-rank residents, two
// contending for each socket's device. Every resident is rated.
func fleetEngine(b *testing.B, pol Policy, est Estimator) *engine {
	e, err := newEngine(Options{Nodes: 1000, CoresPerSocket: 8, Policy: pol, Estimator: est,
		Interference: DefaultInterference()})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range e.nodes {
		for k := 0; k < 4; k++ {
			prof := JobProfile{IOFraction: 0.6, ReadBytesPerSecond: 2e10, WriteBytesPerSecond: 1e10, DeviceSocket: k % 2}
			st := e.addJob(Job{ID: len(e.states)})
			st.phase, st.node, st.duration, st.profile = JobRunning, n.ID, 1e9, prof
			n.place(st.job.ID, 2, st.duration, 0, prof)
			e.idx.place(n.ID, 2)
			e.dirty.mark(n.ID, prof.DeviceSocket)
		}
	}
	e.reflow(0)
	return e
}

// BenchmarkReflow times one reflow of a full 1k-node engine with one
// socket marked dirty per reflow, as a single placement or completion
// leaves it. No resident ever completes, so once b.N passes the
// progress log's cap, every progressLogCap/2 reflows also pay a trim
// that integrates all 4,000 residents over those instants: short runs
// (the ledger's 200x) time the reflow alone, long ones the amortized
// cost.
func BenchmarkReflow(b *testing.B) {
	e := fleetEngine(b, FCFS(core.SLocW), fakeEst{})
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-3
		e.dirty.mark(i%len(e.nodes), i%2)
		e.reflow(now)
	}
}

// BenchmarkPolicyPass times one policy pass of the interference-aware
// PMEM policy over a full 1k-node engine with eight queued jobs. No
// job fits anywhere, so the head's reservation scans every node's
// residents, the backfill probes the index for the rest, the pass
// commits nothing and every iteration sees the same state.
func BenchmarkPolicyPass(b *testing.B) {
	catalog, est := propertyCatalog()
	e := fleetEngine(b, PMEMAwareInterferenceAware(), est)
	for i := 0; i < 8; i++ {
		st := e.addJob(Job{ID: len(e.states), Workflow: catalog[i%len(catalog)]})
		st.phase = JobQueued
		e.pending = append(e.pending, st.job)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.pass(0); err != nil {
			b.Fatal(err)
		}
	}
	if len(e.pending) != 8 {
		b.Fatalf("the pass placed %d jobs on a full fleet", 8-len(e.pending))
	}
}
