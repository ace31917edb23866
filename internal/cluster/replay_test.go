package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
)

// The differential byte-identity suite for the reflow's progress
// bookkeeping. A seeded grid of small contended fleets — both
// interference models, faults on and off, every interference-aware and
// fixed policy — runs through Simulate in records mode and in
// SummaryOnly mode, and the sha256 of each report must equal the digest
// committed in testdata/replay_digests.json. The digests were produced
// by the eager engine that integrated every resident's progress at
// every reflow, so any change in how progress is integrated (order,
// skipped instants, trimmed history) shows up here as a digest change.
// Regenerate with
//
//	go test ./internal/cluster -run TestReplayDigests -update-golden
//
// only when an intentional output change lands.

const replayDigestsFile = "replay_digests.json"

// replayCase is one grid point.
type replayCase struct {
	label string
	opt   Options
	tr    Trace
}

type replayDigest struct {
	Label   string `json:"label"`
	Records string `json:"records"`
	Summary string `json:"summary"`
}

// replayGrid builds the grid. Short mode keeps the first two seeds and
// the long runs, the ones whose reflow counts cross the progress log's
// cap.
func replayGrid(t *testing.T) []replayCase {
	t.Helper()
	models := []struct {
		name    string
		iv      Interference
		catalog func() ([]workflow.Spec, fakeEst)
	}{
		{"default", DefaultInterference(), propertyCatalog},
		{"tiered", TieredInterference(), tieredCatalog},
	}
	policies := []Policy{FCFS(core.SLocW), EASY(core.SLocW), PMEMAware(), EASYInterferenceAware(core.SLocW), PMEMAwareInterferenceAware()}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	var grid []replayCase
	add := func(label string, opt Options, catalog []workflow.Spec, cfg SyntheticConfig) {
		tr, err := Synthetic(catalog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		grid = append(grid, replayCase{label: label, opt: opt, tr: tr})
	}
	for _, md := range models {
		for _, faults := range []bool{false, true} {
			for _, pol := range policies {
				for seed := int64(0); seed < int64(seeds); seed++ {
					catalog, est := md.catalog()
					opt := Options{Nodes: 3, CoresPerSocket: 8, Policy: pol, Estimator: est, Interference: md.iv}
					if faults {
						opt.Faults = RandomFaults(150, 30, seed+7)
						r := DefaultRetry()
						if seed%2 == 0 {
							r.CheckpointIntervalSeconds = 5
						}
						opt.Retry = r
					}
					label := fmt.Sprintf("%s/faults=%v/%s/seed%d", md.name, faults, pol.Name(), seed)
					add(label, opt, catalog, SyntheticConfig{Jobs: 40, MeanInterarrivalSeconds: 6, Seed: seed})
				}
			}
		}
	}
	// Two long runs fill the progress log several times over, and their
	// long residents pin it across trims: trimLog must catch them up,
	// and later re-rates and kills read what it integrated.
	for _, faults := range []bool{false, true} {
		opt := Options{Nodes: 4, CoresPerSocket: 8, Policy: PMEMAwareInterferenceAware(), Interference: DefaultInterference()}
		if faults {
			opt.Faults = RandomFaults(20000, 30, 3)
			r := DefaultRetry()
			r.CheckpointIntervalSeconds = 500
			opt.Retry = r
		}
		tr, est := longResidentTrace(t, 5000)
		opt.Estimator = est
		grid = append(grid, replayCase{label: fmt.Sprintf("default/faults=%v/pmem-aware-i/long", faults), opt: opt, tr: tr})
	}
	return grid
}

// longResidentTrace is a seeded stream over propertyCatalog in which
// every thousandth job is a light 2-rank job that runs for 30,000
// standalone-seconds, thousands of reflow instants. Its socket's
// streaming co-residents come and go, so its rate keeps changing.
func longResidentTrace(t *testing.T, jobs int) (Trace, fakeEst) {
	t.Helper()
	catalog, est := propertyCatalog()
	tr, err := Synthetic(catalog, SyntheticConfig{Jobs: jobs, MeanInterarrivalSeconds: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	long := catalog[0]
	long.Name = "long-resident"
	est.dur[long.Name] = 30000
	est.prof[long.Name] = est.prof[catalog[1].Name]
	for i := 0; i < len(tr.Jobs); i += 1000 {
		tr.Jobs[i].Workflow = long
	}
	return tr, est
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// replayDigestOf runs one grid point in both reporting modes.
func replayDigestOf(t *testing.T, c replayCase) replayDigest {
	t.Helper()
	m, err := Simulate(c.tr, c.opt)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	opt := c.opt
	opt.Fleet.SummaryOnly = true
	sm, err := Simulate(c.tr, opt)
	if err != nil {
		t.Fatalf("%s summary-only: %v", c.label, err)
	}
	sum, err := json.Marshal(sm.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return replayDigest{Label: c.label, Records: sha(js.Bytes()), Summary: sha(sum)}
}

// TestReplayDigests compares every grid point's report digests with the
// committed ones.
func TestReplayDigests(t *testing.T) {
	grid := replayGrid(t)
	got := make([]replayDigest, len(grid))
	for i, c := range grid {
		got[i] = replayDigestOf(t, c)
	}
	path := filepath.Join("testdata", replayDigestsFile)
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update-golden needs the full grid; drop -short")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with -update-golden to create): %v", path, err)
	}
	var want []replayDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byLabel := make(map[string]replayDigest, len(want))
	for _, w := range want {
		byLabel[w.Label] = w
	}
	for _, g := range got {
		w, ok := byLabel[g.Label]
		switch {
		case !ok:
			t.Errorf("%s: no committed digest", g.Label)
		case g.Records != w.Records:
			t.Errorf("%s: records report digest %s, want %s", g.Label, g.Records, w.Records)
		case g.Summary != w.Summary:
			t.Errorf("%s: summary digest %s, want %s", g.Label, g.Summary, w.Summary)
		}
	}
}

// progressReads drives the engine over one grid point the way simulate
// does and counts the two events that read a resident's integrated
// progress: re-rates after a job's first rating, and kills. Every
// attempt bumps its job's epoch once for its first rating (the commit
// instant's closing reflow), once per later re-rate and once if it is
// killed, so the re-rates fall out of the final epoch. trimmed is the
// number of instants the progress log dropped.
func progressReads(t *testing.T, c replayCase) (rerates, kills, trimmed int) {
	t.Helper()
	e, err := newEngine(c.opt)
	if err != nil {
		t.Fatal(err)
	}
	e.src = c.tr.Source()
	if err := e.pull(); err != nil {
		t.Fatal(err)
	}
	for e.src != nil || e.finished < len(e.states) {
		head, ok := e.events.peek()
		if !ok {
			break
		}
		if _, err := e.step(head.at, false); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
	}
	for _, st := range e.states {
		k := st.attempts - 1
		if st.failed {
			k = st.attempts
		}
		kills += k
		rerates += st.epoch - st.attempts - k
	}
	return rerates, kills, e.log.base
}

// TestReplayGridCoverage: the grid must exercise both replay readers
// and the log trim, or its digests would pin nothing the progress log
// changes. (The fleet workload re-rates each job only once, at its
// first rating, and never kills.)
func TestReplayGridCoverage(t *testing.T) {
	var rerates, kills, trims int
	for _, c := range replayGrid(t) {
		r, k, trimmed := progressReads(t, c)
		rerates += r
		kills += k
		if trimmed > 0 {
			trims++
		}
	}
	if rerates == 0 {
		t.Error("no grid run re-rates a job after its first rating")
	}
	if kills == 0 {
		t.Error("no grid run kills a rated resident")
	}
	if trims == 0 {
		t.Error("no grid run fills the progress log")
	}
	t.Logf("grid: %d re-rates after first rating, %d kills, %d runs trim the log", rerates, kills, trims)
}

// TestProgressLogBounded: a long placement-store run — tens of
// thousands of jobs through AdvanceTo on a few nodes, with residents
// that outlive thousands of reflows — keeps the progress log within
// its cap while trimming it many times over.
func TestProgressLogBounded(t *testing.T) {
	jobs := 50000
	if testing.Short() {
		jobs = 10000
	}
	tr, est := longResidentTrace(t, jobs)
	s, err := NewState(Options{Nodes: 6, CoresPerSocket: 8, Policy: PMEMAwareInterferenceAware(), Estimator: est,
		Interference: DefaultInterference()})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 500
	for i, j := range tr.Jobs {
		if _, err := s.Submit(j.Workflow, j.ArrivalSeconds); err != nil {
			t.Fatal(err)
		}
		if (i+1)%batch != 0 && i+1 != len(tr.Jobs) {
			continue
		}
		if _, err := s.AdvanceTo(j.ArrivalSeconds); err != nil {
			t.Fatal(err)
		}
		if n := len(s.e.log.at); n > progressLogCap {
			t.Fatalf("after job %d the progress log holds %d instants, cap %d", i, n, progressLogCap)
		}
	}
	if _, err := s.AdvanceTo(math.MaxFloat64 / 2); err != nil {
		t.Fatal(err)
	}
	if done := s.Snapshot().Completed; done != jobs {
		t.Fatalf("%d of %d jobs completed", done, jobs)
	}
	if trimmed := s.e.log.base; trimmed < 4*progressLogCap {
		t.Errorf("the log trimmed only %d instants over %d jobs; the run never exercised the bound", trimmed, jobs)
	}
}
