package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// fleet streams a seeded synthetic trace over the 18-workload suite
// through cluster.SimulateStream with the interference-aware PMEM
// policy. Set-up warms the run engine, so a pass runs no simulations:
// it measures the event loop, the index, the reflow and the runner's
// hit path.
type fleet struct {
	o   options
	t   *tally
	rt  *core.Runner
	est *timedEstimator
	pol *timedPolicy
	// want is the committed summary digest for this seed and size, or
	// the first pass's digest when none is committed.
	want string

	walls, nsPer, jobsPer []float64
	recP50, recP99        []float64 // per pass, ms
	placeP50, placeP99    []float64 // per pass, ms

	// From the traced pass.
	events, passes int
	selfNsPerEvent float64
	estShare       float64
	estNs          map[string]float64
}

func setupFleet(o options, t *tally) (bench, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	rt := core.NewRunner(core.DefaultEnv(), workers)
	for _, wf := range workloads.Suite() {
		if _, err := rt.RunAll(wf); err != nil {
			return nil, err
		}
		if _, err := rt.RecommendWorkflow(wf); err != nil {
			return nil, err
		}
	}
	f := &fleet{o: o, t: t, rt: rt}
	f.est = &timedEstimator{inner: cluster.NewEstimator(rt)}
	f.pol = &timedPolicy{inner: cluster.PMEMAwareInterferenceAware()}
	s := o.sizes
	if ref.Fleet.Nodes == s.fleetNodes && ref.Fleet.Jobs == s.fleetJobs && ref.Fleet.Interarrival == s.fleetInterarrival {
		f.want = ref.Fleet.Digests[strconv.FormatInt(o.seed, 10)]
	}
	return f, nil
}

// simulate runs one pass over the seeded stream and returns the
// engine's metrics and the summary digest.
func (f *fleet) simulate() (*cluster.Metrics, string, error) {
	s := f.o.sizes
	src, err := cluster.SyntheticSource(workloads.Suite(), cluster.SyntheticConfig{
		Jobs: s.fleetJobs, MeanInterarrivalSeconds: s.fleetInterarrival, Seed: f.o.seed,
	})
	if err != nil {
		return nil, "", err
	}
	m, err := cluster.SimulateStream(src, cluster.Options{
		Nodes:        s.fleetNodes,
		Policy:       f.pol,
		Estimator:    f.est,
		Interference: cluster.DefaultInterference(),
		Fleet:        cluster.FleetOptions{SummaryOnly: true},
	})
	if err != nil {
		return nil, "", err
	}
	data, err := json.Marshal(m.Summary())
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(data)
	return m, hex.EncodeToString(sum[:]), nil
}

func (f *fleet) round(tr *tracer) (time.Duration, error) {
	req := fmt.Sprintf("fleet/seed%d/%d", f.o.seed, len(f.walls))
	f.est.tr, f.est.req = tr, req
	f.est.recommend = f.est.recommend[:0]
	f.pol.took = f.pol.took[:0]
	missesBefore := f.rt.Stats().Misses
	root := tr.begin("cluster.SimulateStream", -1, req)
	f.est.parent = root
	start := time.Now()
	m, digest, err := f.simulate()
	wall := time.Since(start)
	tr.end(root)
	if !f.t.op(err == nil, "fleet: pass: %v", err) {
		return wall, nil
	}
	if f.want == "" {
		f.want = digest
	}
	f.t.op(digest == f.want, "fleet: seed %d summary digest %s, want %s", f.o.seed, digest, f.want)
	sum := m.Summary()
	f.t.op(sum.Jobs == f.o.sizes.fleetJobs && sum.MakespanSeconds > 0,
		"fleet: summary covers %d jobs (makespan %g), want %d", sum.Jobs, sum.MakespanSeconds, f.o.sizes.fleetJobs)
	misses := f.rt.Stats().Misses - missesBefore
	f.t.op(misses == 0, "fleet: pass ran %d simulations after set-up, want 0", misses)

	f.walls = append(f.walls, wall.Seconds())
	f.nsPer = append(f.nsPer, float64(wall.Nanoseconds())/float64(m.Events))
	f.jobsPer = append(f.jobsPer, float64(sum.Jobs)/wall.Seconds())
	f.recP50 = append(f.recP50, quantile(f.est.recommend, 0.50))
	f.recP99 = append(f.recP99, quantile(f.est.recommend, 0.99))
	f.placeP50 = append(f.placeP50, quantile(f.pol.took, 0.50))
	f.placeP99 = append(f.placeP99, quantile(f.pol.took, 0.99))
	if tr != nil {
		f.events, f.passes = m.Events, m.Passes
		var est time.Duration
		f.estNs = map[string]float64{}
		for _, name := range estimatorSpans {
			d, n := tr.childTime(root, name)
			est += d
			if n > 0 {
				f.estNs[name] = float64(d.Nanoseconds()) / float64(n)
			}
		}
		stream := tr.dur(root)
		f.selfNsPerEvent = float64((stream - est).Nanoseconds()) / float64(m.Events)
		f.estShare = est.Seconds() / stream.Seconds()
	}
	return wall, nil
}

func (f *fleet) endToEnd() map[string]metric {
	return map[string]metric{
		"wall_s":           {median(f.walls), "s"},
		"ns_per_event":     {median(f.nsPer), "ns"},
		"req_per_s":        {median(f.jobsPer), "1/s"},
		"recommend_p50_ms": {median(f.recP50), "ms"},
		"recommend_p99_ms": {median(f.recP99), "ms"},
		"place_p50_ms":     {median(f.placeP50), "ms"},
		"place_p99_ms":     {median(f.placeP99), "ms"},
	}
}

func (f *fleet) layers(m map[string]metric) {
	m["cluster.events"] = metric{float64(f.events), "count"}
	m["cluster.passes"] = metric{float64(f.passes), "count"}
	m["cluster.self_ns_per_event"] = metric{f.selfNsPerEvent, "ns"}
	m["cluster.estimator_share"] = metric{f.estShare, "ratio"}
	m["core.estimate_ns"] = metric{f.estNs[spanEstimate], "ns"}
	m["core.profile_ns"] = metric{f.estNs[spanProfile], "ns"}
	m["core.recommend_ns"] = metric{f.estNs[spanRecommend], "ns"}
}

func (f *fleet) stats() (core.RunnerStats, error) { return f.rt.Stats(), nil }

func (f *fleet) close() {}

const (
	spanEstimate  = "core.Estimate"
	spanProfile   = "core.Profile"
	spanRecommend = "core.Recommend"
)

var estimatorSpans = []string{spanEstimate, spanProfile, spanRecommend}

// timedEstimator wraps the production cluster.Estimator. Every
// Recommend call's latency is kept for the recommend_* metrics; in a
// traced pass every call also becomes a span under the stream's span.
type timedEstimator struct {
	inner     cluster.Estimator
	recommend []float64 // ms per call, this pass

	tr     *tracer
	parent int
	req    string
}

func (e *timedEstimator) Estimate(wf workflow.Spec, cfg core.Config) (float64, error) {
	if e.tr == nil {
		return e.inner.Estimate(wf, cfg)
	}
	t0 := time.Now()
	v, err := e.inner.Estimate(wf, cfg)
	e.tr.add(spanEstimate, e.parent, e.req, t0, time.Since(t0))
	return v, err
}

func (e *timedEstimator) Recommend(wf workflow.Spec) (core.Config, error) {
	t0 := time.Now()
	cfg, err := e.inner.Recommend(wf)
	d := time.Since(t0)
	e.recommend = append(e.recommend, ms(d))
	e.tr.add(spanRecommend, e.parent, e.req, t0, d)
	return cfg, err
}

func (e *timedEstimator) Profile(wf workflow.Spec, cfg core.Config) (cluster.JobProfile, error) {
	if e.tr == nil {
		return e.inner.Profile(wf, cfg)
	}
	t0 := time.Now()
	p, err := e.inner.Profile(wf, cfg)
	e.tr.add(spanProfile, e.parent, e.req, t0, time.Since(t0))
	return p, err
}

// timedPolicy wraps a cluster.Policy and keeps each scheduling pass's
// latency for the place_* metrics.
type timedPolicy struct {
	inner cluster.Policy
	took  []float64 // ms per pass, this stream pass
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Schedule(ctx *cluster.SchedContext) ([]cluster.Placement, error) {
	t0 := time.Now()
	out, err := p.inner.Schedule(ctx)
	p.took = append(p.took, ms(time.Since(t0)))
	return out, err
}
