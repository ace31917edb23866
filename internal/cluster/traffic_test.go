package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// The fleet pass: a seeded synthetic stream over the 18-workload suite
// under the interference-aware PMEM policy and DefaultInterference, on
// a run engine that has already simulated and classified every suite
// workload, so the pass runs no simulation and every estimator ask is a
// runner hit. It is the benchmark fleet workload's shape (200 nodes,
// 40k jobs, 0.15 s mean inter-arrival) scaled to 20 nodes and 1k jobs
// at the same per-node load.
const (
	fleetPassNodes        = 20
	fleetPassJobs         = 1000
	fleetPassInterarrival = 1.5
)

// warmFleetRunner builds the warm run engine once per test binary.
var warmFleetRunner = sync.OnceValues(func() (*core.Runner, error) {
	rt := core.NewRunner(core.DefaultEnv(), 2)
	for _, wf := range workloads.Suite() {
		if _, err := rt.RunAll(wf); err != nil {
			return nil, err
		}
		if _, err := rt.RecommendWorkflow(wf); err != nil {
			return nil, err
		}
	}
	return rt, nil
})

// fleetPass runs one seeded fleet pass on nodes nodes.
func fleetPass(est Estimator, nodes int, seed int64) (*Metrics, error) {
	src, err := SyntheticSource(workloads.Suite(), SyntheticConfig{
		Jobs: fleetPassJobs, MeanInterarrivalSeconds: fleetPassInterarrival, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return SimulateStream(src, Options{Nodes: nodes, Policy: PMEMAwareInterferenceAware(), Estimator: est,
		Interference: DefaultInterference(), Fleet: FleetOptions{SummaryOnly: true}})
}

// BenchmarkFleetPass times one fleet pass end to end: the event loop,
// the policy pass, the reflow and the estimator's runner hits. ns/event
// divides the time by the engine's event-heap pops, as the benchmark
// fleet workload does.
func BenchmarkFleetPass(b *testing.B) {
	rt, err := warmFleetRunner()
	if err != nil {
		b.Fatal(err)
	}
	est := NewEstimator(rt)
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := fleetPass(est, fleetPassNodes, 1)
		if err != nil {
			b.Fatal(err)
		}
		events += m.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// askLog wraps an estimator and hashes every ask it answers — its kind,
// the workflow's name and ranks, and the configuration — in ask order.
type askLog struct {
	inner Estimator
	h     io.Writer
	n     int
}

func (a *askLog) log(kind byte, wf workflow.Spec, cfg string) {
	a.n++
	fmt.Fprintf(a.h, "%c %s/%d %s\n", kind, wf.Name, wf.Ranks, cfg)
}

func (a *askLog) Estimate(wf workflow.Spec, cfg core.Config) (float64, error) {
	a.log('E', wf, cfg.Label())
	return a.inner.Estimate(wf, cfg)
}

func (a *askLog) Recommend(wf workflow.Spec) (core.Config, error) {
	a.log('R', wf, "")
	return a.inner.Recommend(wf)
}

func (a *askLog) Profile(wf workflow.Spec, cfg core.Config) (JobProfile, error) {
	a.log('P', wf, cfg.Label())
	return a.inner.Profile(wf, cfg)
}

// TestFleetPassRunnerTraffic pins the estimator traffic of two seeded
// fleet passes: the runner requests each makes (Stats().Runs()), none
// of them a simulation, and a digest of the ask sequence. Making an ask
// cheaper must not change which asks are made, or in which order: the
// paper-suite benchmark divides its wall time by these requests. A job
// placed on its first pass costs five asks (recommend, then profile and
// estimate in the policy pass and again at commit), and every further
// pass that considers it while it waits asks again: 20 nodes rarely
// queue, 10 nodes back the queue up.
func TestFleetPassRunnerTraffic(t *testing.T) {
	rt, err := warmFleetRunner()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		nodes  int
		runs   uint64
		digest uint64
	}{
		{20, 5240, 0xd815d8e45db1f1c6},
		{10, 351103, 0xadcf5246c42530aa},
	} {
		h := fnv.New64a()
		log := &askLog{inner: NewEstimator(rt), h: h}
		before := rt.Stats()
		if _, err := fleetPass(log, c.nodes, 1); err != nil {
			t.Fatal(err)
		}
		after := rt.Stats()
		if got := after.Runs() - before.Runs(); got != c.runs || got != uint64(log.n) {
			t.Errorf("%d nodes: %d runner requests for %d asks, want %d", c.nodes, got, log.n, c.runs)
		}
		if after.Misses != before.Misses {
			t.Errorf("%d nodes: the pass ran %d simulations on a warm runner", c.nodes, after.Misses-before.Misses)
		}
		if got := h.Sum64(); got != c.digest {
			t.Errorf("%d nodes: ask sequence digest %#x, want %#x", c.nodes, got, c.digest)
		}
	}
}

// failNth wraps an estimator and fails the nth ask of one kind ('E'
// estimate, 'R' recommend, 'P' profile), counting from 1.
type failNth struct {
	inner   Estimator
	kind    byte
	nth     int
	counted int
}

var errChosen = errors.New("chosen failure")

func (f *failNth) fail(kind byte) bool {
	if kind != f.kind {
		return false
	}
	f.counted++
	return f.counted == f.nth
}

func (f *failNth) Estimate(wf workflow.Spec, cfg core.Config) (float64, error) {
	if f.fail('E') {
		return 0, errChosen
	}
	return f.inner.Estimate(wf, cfg)
}

func (f *failNth) Recommend(wf workflow.Spec) (core.Config, error) {
	if f.fail('R') {
		return core.Config{}, errChosen
	}
	return f.inner.Recommend(wf)
}

func (f *failNth) Profile(wf workflow.Spec, cfg core.Config) (JobProfile, error) {
	if f.fail('P') {
		return JobProfile{}, errChosen
	}
	return f.inner.Profile(wf, cfg)
}

// TestEstimatorErrorsSurfaceAtSameStep fails chosen asks of a fleet
// pass and pins where each failure surfaces: the job and the step (the
// policy configuring, profiling or estimating a queued job, or the
// engine executing or profiling a committed one) named in the error.
// Each ask is the same one, at the same job and step, as before the
// estimator's paths were made cheaper.
func TestEstimatorErrorsSurfaceAtSameStep(t *testing.T) {
	rt, err := warmFleetRunner()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind byte
		nth  int
		want string
	}{
		{'R', 1, "cluster: pmem-aware-i: configuring job 0 (micro-2 KiB/24r): chosen failure"},
		{'R', 613, "cluster: pmem-aware-i: configuring job 20 (gtc+readonly/16r): chosen failure"},
		{'P', 1, "cluster: pmem-aware-i: profiling job 0 (micro-2 KiB/24r): chosen failure"},
		{'P', 2, "cluster: profiling job 0 (micro-2 KiB/24r): chosen failure"},
		{'P', 777, "cluster: pmem-aware-i: profiling job 24 (micro-64 MiB/16r): chosen failure"},
		{'E', 1, "cluster: pmem-aware-i: estimating job 0 (micro-2 KiB/24r): chosen failure"},
		{'E', 2, "cluster: executing job 0 (micro-2 KiB/24r): chosen failure"},
		{'E', 1001, "cluster: pmem-aware-i: estimating job 181 (miniamr+matrixmult/8r): chosen failure"},
	} {
		_, err := fleetPass(&failNth{inner: NewEstimator(rt), kind: c.kind, nth: c.nth}, 5, 1)
		if err == nil || !errors.Is(err, errChosen) {
			t.Errorf("%c #%d: error %v, want the chosen failure", c.kind, c.nth, err)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%c #%d: error\n%s\nwant\n%s", c.kind, c.nth, err, c.want)
		}
	}
}
