package main

import (
	"reflect"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/experiments"
	"pmemsched/internal/pmem"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/workloads"
)

// TestDefaultPointReproducesConstants: materializing the default point
// must give back the pinned constants exactly, or -quick scores
// something other than what wfsuite runs.
func TestDefaultPointReproducesConstants(t *testing.T) {
	s := materialize(defaultPoint())
	if !reflect.DeepEqual(s.model, pmem.Gen1Optane()) {
		t.Errorf("model %+v, want pmem.Gen1Optane() %+v", s.model, pmem.Gen1Optane())
	}
	if s.novaCosts != nova.DefaultCosts() {
		t.Errorf("costs %+v, want nova.DefaultCosts() %+v", s.novaCosts, nova.DefaultCosts())
	}
	if !reflect.DeepEqual(s.suite, workloads.Suite()) {
		t.Error("suite differs from workloads.Suite()")
	}
}

// TestQuickEvaluation pins what -quick reports on the pinned constants:
// the catalogue's findings as wfsuite reports them (27 of 29, missing
// only Fig 9's two knife-edge placements), on runtimes bit-equal to the
// default environment's.
func TestQuickEvaluation(t *testing.T) {
	er := evaluate(defaultPoint())
	if er.matched != 27 || len(er.claims) != 29 {
		t.Errorf("matched %d/%d catalogue findings, want 27/29", er.matched, len(er.claims))
	}
	for k, f := range er.findings {
		c := er.claims[k]
		deviation := c.Family == "miniamr+matrixmult" && c.Kind == experiments.WinnerClaim &&
			(c.Ranks == 8 || c.Ranks == 16)
		if f.Match == deviation {
			t.Errorf("%s %s: match %v", c.Family, f.Name, f.Match)
		}
	}
	rt := core.NewRunner(core.DefaultEnv(), 0)
	for i, wf := range workloads.Suite() {
		results, err := rt.RunAll(wf)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range results {
			if got := er.runtimes[i][j]; got != r.TotalSeconds {
				t.Errorf("%s %s: runtime %v, want %v", wf.Name, r.Config.Label(), got, r.TotalSeconds)
			}
		}
	}
}
