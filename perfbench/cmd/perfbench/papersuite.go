package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/experiments"
)

// reference holds the committed expected outputs the runs check
// against. Regenerate it with `go test -run TestReference -update`
// after an intended model change.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	// PaperSuite maps experiment ID to its rendered report's digest and
	// claim counts.
	PaperSuite map[string]suiteRef `json:"paper_suite"`
	// Fleet holds the summary digest per seed of the full-size stream.
	Fleet fleetRef `json:"fleet"`
}

type suiteRef struct {
	Digest  string `json:"digest"`
	Matched int    `json:"matched"`
	Claims  int    `json:"claims"`
}

type fleetRef struct {
	Nodes        int               `json:"nodes"`
	Jobs         int               `json:"jobs"`
	Interarrival float64           `json:"interarrival"`
	Digests      map[string]string `json:"digests"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("decoding reference.json: %w", err)
	}
	return ref, nil
}

// Every full regeneration matches 62 of the paper's 64 claims; the two
// misses are the Fig 9 placement rows recorded in EXPERIMENTS.md.
const (
	suiteMatched = 62
	suiteClaims  = 64
)

// clusterExperiments are the paper-suite experiments that exercise
// cluster placement; their latencies are the workload's place_*
// metrics and every other experiment's are its recommend_* metrics.
var clusterExperiments = map[string]bool{"online": true, "interference": true, "faults": true}

// paperSuite regenerates the experiments on a fresh runner each round,
// as a user running wfsuite would.
type paperSuite struct {
	o     options
	t     *tally
	ref   map[string]suiteRef
	exps  []experiments.Experiment
	full  bool
	last  *core.Runner
	walls []float64 // seconds per round
	nsPer []float64 // round wall per runner request
	reqs  float64   // runner requests over all rounds
	total time.Duration
	took  map[string][]float64 // ms per experiment, one entry per round

	// From the traced round.
	expSecs   map[string]float64
	expMisses map[string]uint64
	missMs    float64
}

// setupPaperSuite resolves the experiment list and the reference, then
// warms the process (heap, code paths) by regenerating fig1 on a
// throwaway runner.
func setupPaperSuite(o options, t *tally) (bench, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	p := &paperSuite{o: o, t: t, ref: ref.PaperSuite, full: o.sizes.experiments == nil, took: map[string][]float64{}}
	if p.full {
		p.exps = experiments.All()
	} else {
		for _, id := range o.sizes.experiments {
			e, err := experiments.ByID(id)
			if err != nil {
				return nil, err
			}
			p.exps = append(p.exps, e)
		}
	}
	warm, err := experiments.ByID("fig1")
	if err != nil {
		return nil, err
	}
	if _, err := warm.Run(core.NewRunner(core.DefaultEnv(), workers)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return p, nil
}

func (p *paperSuite) round(tr *tracer) (time.Duration, error) {
	rt := core.NewRunner(core.DefaultEnv(), workers)
	p.last = rt
	req := fmt.Sprintf("paper-suite/%d", len(p.walls))
	root := tr.begin("paper-suite.round", -1, req)
	if tr != nil {
		p.expSecs = map[string]float64{}
		p.expMisses = map[string]uint64{}
	}
	matched, claims := 0, 0
	start := time.Now()
	for _, e := range p.exps {
		before := rt.Stats().Misses
		id := tr.begin("experiment."+e.ID, root, req)
		t0 := time.Now()
		rep, err := e.Run(rt)
		d := time.Since(t0)
		tr.end(id)
		if !p.t.op(err == nil, "paper-suite: %s: %v", e.ID, err) {
			continue
		}
		p.took[e.ID] = append(p.took[e.ID], ms(d))
		if tr != nil {
			p.expSecs[e.ID] = d.Seconds()
			p.expMisses[e.ID] = rt.Stats().Misses - before
		}
		h := sha256.New()
		if err := rep.Render(h); err != nil {
			return 0, err
		}
		ok, total := rep.Matched()
		matched += ok
		claims += total
		want := p.ref[e.ID]
		got := suiteRef{Digest: hex.EncodeToString(h.Sum(nil)), Matched: ok, Claims: total}
		p.t.op(got == want, "paper-suite: %s rendered %+v, want %+v", e.ID, got, want)
	}
	wall := time.Since(start)
	tr.end(root)
	if p.full {
		p.t.op(matched == suiteMatched && claims == suiteClaims,
			"paper-suite: %d/%d claims matched, want %d/%d", matched, claims, suiteMatched, suiteClaims)
	}
	st := rt.Stats()
	p.walls = append(p.walls, wall.Seconds())
	p.nsPer = append(p.nsPer, float64(wall.Nanoseconds())/float64(st.Runs()))
	p.reqs += float64(st.Runs())
	p.total += wall
	if tr != nil && st.Misses > 0 {
		p.missMs = ms(wall) / float64(st.Misses)
	}
	return wall, nil
}

// endToEnd reports latencies over each experiment's median time
// across rounds, which keeps a garbage collection that lands in one
// round's short experiment from moving the quantiles.
func (p *paperSuite) endToEnd() map[string]metric {
	var rec, place []float64
	for _, e := range p.exps {
		if clusterExperiments[e.ID] {
			place = append(place, median(p.took[e.ID]))
		} else {
			rec = append(rec, median(p.took[e.ID]))
		}
	}
	return map[string]metric{
		"wall_s":           {median(p.walls), "s"},
		"ns_per_event":     {median(p.nsPer), "ns"},
		"req_per_s":        {p.reqs / p.total.Seconds(), "1/s"},
		"recommend_p50_ms": {quantile(rec, 0.50), "ms"},
		"recommend_p99_ms": {quantile(rec, 0.99), "ms"},
		"place_p50_ms":     {quantile(place, 0.50), "ms"},
		"place_p99_ms":     {quantile(place, 0.99), "ms"},
	}
}

func (p *paperSuite) layers(m map[string]metric) {
	m["core.miss_ms"] = metric{p.missMs, "ms"}
	for _, e := range experiments.All() {
		m["experiment."+e.ID+"_s"] = metric{p.expSecs[e.ID], "s"}
		m["experiment."+e.ID+".misses"] = metric{float64(p.expMisses[e.ID]), "count"}
	}
}

func (p *paperSuite) stats() (core.RunnerStats, error) { return p.last.Stats(), nil }

func (p *paperSuite) close() {}
