package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

var tierPolicies = []workflow.TierPolicy{
	workflow.TierPMEMOnly, workflow.TierDRAMFirstSpill, workflow.TierWriteStageDrain, workflow.TierHotPromote,
}

// keySet records keys and the input each came from, failing on the
// first two inputs that share a key.
type keySet map[cacheKey]string

func (s keySet) add(t *testing.T, k cacheKey, what string) {
	t.Helper()
	if prev, dup := s[k]; dup {
		t.Errorf("%s and %s share cache key %v", prev, what, k)
	}
	s[k] = what
}

// TestKeysDistinctAcrossSuite: every suite workflow under every Table I
// configuration and tier policy gets its own run key, its own classify
// key, and no run key equals a classify key.
func TestKeysDistinctAcrossSuite(t *testing.T) {
	keys := keySet{}
	for _, base := range workloads.Suite() {
		for _, p := range tierPolicies {
			wf := base
			wf.Tier = workflow.TierSpec{Policy: p}
			keys.add(t, classifyKey(envA, &wf), fmt.Sprintf("classify %s/tier%d", wf.Name, p))
			for _, cfg := range Configs {
				keys.add(t, runKey(envA, &wf, cfg.Deployment()), fmt.Sprintf("run %s/tier%d/%s", wf.Name, p, cfg.Label()))
			}
		}
	}
	if want := len(workloads.Suite()) * len(tierPolicies) * (1 + len(Configs)); len(keys) != want {
		t.Fatalf("%d distinct keys, want %d", len(keys), want)
	}
}

// TestDAGKeysDistinct: uniform assignments over a grid of stage
// configurations, and the same grid applied to one stage at a time,
// all get distinct DAG keys.
func TestDAGKeysDistinct(t *testing.T) {
	d := testDAG()
	var grid []StageConfig
	for _, r := range []int{0, 4, 8} {
		for _, m := range []Mode{Serial, Parallel} {
			for _, p := range []Placement{LocW, LocR} {
				for _, st := range []string{"", "nv"} {
					for _, tp := range tierPolicies[:2] {
						grid = append(grid, StageConfig{Ranks: r, Mode: m, Place: p, Stack: st, Tier: workflow.TierSpec{Policy: tp}})
					}
				}
			}
		}
	}
	keys := keySet{}
	for i, sc := range grid {
		keys.add(t, dagKey(envA, d, UniformAssignment(d, sc)), fmt.Sprintf("uniform %+v", sc))
		// Stage 1 differs from a grid[0] baseline (skipping the uniform
		// grid[0] assignment added above).
		if i > 0 {
			asg := UniformAssignment(d, grid[0])
			asg.Stages[1] = sc
			keys.add(t, dagKey(envA, d, asg), fmt.Sprintf("stage1 %+v", sc))
		}
	}
	// A shorter assignment is not a prefix-equal of a longer one.
	short := UniformAssignment(d, grid[0])
	short.Stages = short.Stages[:2]
	keys.add(t, dagKey(envA, d, short), "two-stage assignment")
}

// TestKeyBoundaries pins the cases a delimiter-free encoding would
// merge: strings that concatenate alike, slices that differ only by a
// zero element, the two zeros, and strings at and across the
// eight-byte word boundaries of the string packing.
func TestKeyBoundaries(t *testing.T) {
	spec := func(sim, ana string, simObjs []workflow.ObjectSpec) workflow.Spec {
		return workflow.Spec{
			Name: "wf", Ranks: 4, Iterations: 2,
			Simulation: workflow.ComponentSpec{Name: sim, Objects: simObjs},
			Analytics:  workflow.ComponentSpec{Name: ana},
		}
	}
	dep := SLocW.Deployment()
	one := []workflow.ObjectSpec{{Bytes: 1, CountPerRank: 2}}
	oneZero := []workflow.ObjectSpec{{Bytes: 1, CountPerRank: 2}, {}}
	// Equal byte streams but for where the slice counts fall: only the
	// count prefixes tell these two apart.
	anaZero := spec("", "", one)
	anaZero.Analytics.Objects = []workflow.ObjectSpec{{}}
	negZero := spec("s", "a", nil)
	negZero.Simulation.ComputeJitter = math.Copysign(0, -1)

	type boundary struct {
		name string
		a, b workflow.Spec
	}
	cases := []boundary{
		{"names ab|c vs a|bc", spec("ab", "c", nil), spec("a", "bc", nil)},
		{"names abc| vs |abc", spec("abc", "", nil), spec("", "abc", nil)},
		{"objects [1x2] vs [1x2 0x0]", spec("s", "a", one), spec("s", "a", oneZero)},
		{"objects [] vs [0x0]", spec("s", "a", nil), spec("s", "a", []workflow.ObjectSpec{{}})},
		{"zero object in sim vs in analytics", spec("", "", oneZero), anaZero},
		{"jitter -0 vs +0", negZero, spec("s", "a", nil)},
		// Strings pack eight bytes to a word, the last one zero-padded:
		// only the length prefix tells a pad byte from a NUL.
		{`names "a" vs "a\x00"`, spec("a", "", nil), spec("a\x00", "", nil)},
		{"names differing in the last partial word", spec("abcdefghij", "", nil), spec("abcdefghik", "", nil)},
		{"names abcdefgh|i vs abcdefghi|", spec("abcdefgh", "i", nil), spec("abcdefghi", "", nil)},
	}
	// At every word boundary: a name against the same name with its last
	// byte changed, and against the name one NUL longer.
	for _, n := range []int{7, 8, 9, 15, 16, 17} {
		name := strings.Repeat("w", n)
		cases = append(cases,
			boundary{fmt.Sprintf("%d-byte name vs last byte changed", n), spec(name, "", nil), spec(name[:n-1]+"v", "", nil)},
			boundary{fmt.Sprintf("%d-byte name vs NUL appended", n), spec(name, "", nil), spec(name+"\x00", "", nil)})
	}

	for _, c := range cases {
		if runKey(envA, &c.a, dep) == runKey(envA, &c.b, dep) {
			t.Errorf("%s: run keys collide", c.name)
		}
		if classifyKey(envA, &c.a) == classifyKey(envA, &c.b) {
			t.Errorf("%s: classify keys collide", c.name)
		}
	}

	// The same boundaries inside a DAG: stage names that concatenate
	// alike, and edge endpoints that do.
	d1, d2 := testDAG(), testDAG()
	d1.Edges[0].From, d1.Edges[0].To = "simf", "ilter"
	d2.Edges[0].From, d2.Edges[0].To = "sim", "filter"
	asg := UniformAssignment(d1, StageConfig{})
	if dagKey(envA, d1, asg) == dagKey(envA, d2, asg) {
		t.Error("edge endpoints simf>ilter and sim>filter collide")
	}
}

// TestRunnerHitAllocFree: once warm, Run, Classify and
// RecommendWorkflow answer from the cache without allocating.
func TestRunnerHitAllocFree(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 1)
	wf := workloads.GTCReadOnly(16)
	if _, err := rt.Run(wf, SLocW); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RecommendWorkflow(wf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Run", func() error { _, err := rt.Run(wf, SLocW); return err }},
		{"Classify", func() error { _, err := rt.Classify(wf); return err }},
		{"RecommendWorkflow", func() error { _, err := rt.RecommendWorkflow(wf); return err }},
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warm %s allocates %v times per call, want 0", c.name, allocs)
		}
	}
}
