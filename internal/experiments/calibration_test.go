package experiments

import (
	"sync"
	"testing"

	"pmemsched/internal/core"
)

// Calibration acceptance tests: they assert the claim catalogue — the
// paper's winning configuration (or, for the two documented
// deviations, the winning execution mode) of every suite workload, and
// the headline effect sizes within their bands — on one shared run
// engine. If a model or workload constant changes and breaks one of
// these, the change regressed the reproduction.
//
// Known deviations (also recorded in EXPERIMENTS.md): the two
// miniAMR+MatrixMult rows at 8 and 16 ranks pick the correct execution
// mode but the adjacent placement, with the alternatives within ~1-3%
// of each other (the paper's own margin on Fig 9a is 7%).
var deviations = map[string]bool{"miniamr+matrixmult/8r": true, "miniamr+matrixmult/16r": true}

// calibrationRunner is the run engine every calibration test shares.
var calibrationRunner = sync.OnceValue(func() *core.Runner {
	return core.NewRunner(core.DefaultEnv(), 0)
})

// rowResults runs the claim's suite row under every configuration.
func rowResults(t *testing.T, c Claim) []core.Result {
	t.Helper()
	results, err := calibrationRunner().RunAll(c.Workflow())
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestSuiteWinnersMatchPaper is the headline acceptance test: for every
// suite workload the oracle-best configuration is the catalogue's paper
// winner, exactly for 16 of 18 rows and by execution mode for the two
// documented deviations. TestGTCCrossover is its -short subset.
func TestSuiteWinnersMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	claims := Catalogue()
	for _, row := range claims {
		if row.Kind != WinnerClaim {
			continue
		}
		name := row.Workflow().Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			results := rowResults(t, row)
			for _, c := range claims {
				if c.Family != row.Family || c.Ranks != row.Ranks || c.Kind == RatioClaim {
					continue
				}
				f := c.Check(results)
				if c.Kind == WinnerClaim && deviations[name] {
					// The paper's placement must be within a few percent: the
					// deviation is a knife-edge, not a regime error.
					if got := core.Best(results).Config; got.Mode != c.Config.Mode {
						t.Errorf("winner %s has wrong mode (paper: %s)", got.Label(), c.Config.Label())
					}
					if f.Value-1 > 0.05 {
						t.Errorf("paper's choice %s regrets %.1f%% (deviation no longer knife-edge)",
							c.Config.Label(), (f.Value-1)*100)
					}
					continue
				}
				if !f.Match {
					t.Errorf("%s: measured %s, paper %s (paper's choice runs %.3fx the best)",
						f.Name, f.Measured, f.Paper, f.Value)
				}
			}
		})
	}
}

// TestGTCCrossover checks the catalogue's GTC + Read-Only winners, the
// paper's three-way crossover (parallel at 8 ranks, serial
// read-priority at 16, serial write-priority at 24) and the single most
// characteristic result of the evaluation. It also runs in -short mode.
func TestGTCCrossover(t *testing.T) {
	var ranks []int
	for _, c := range Catalogue() {
		if c.Kind != WinnerClaim || c.Family != "gtc+readonly" {
			continue
		}
		ranks = append(ranks, c.Ranks)
		if f := c.Check(rowResults(t, c)); !f.Match {
			t.Errorf("%s @ %d ranks: measured %s, paper %s", f.Name, c.Ranks, f.Measured, f.Paper)
		}
	}
	if len(ranks) != 3 {
		t.Fatalf("catalogue has gtc+readonly winner claims at ranks %v, want 8, 16 and 24", ranks)
	}
}

// TestRecommendationsMatchPaperRows checks the classifier+rule engine
// end to end: every suite workload must land on a Table II row whose
// configuration is the catalogue's paper winner for that workload
// (independent of what the simulated oracle says).
func TestRecommendationsMatchPaperRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	for _, c := range Catalogue() {
		if c.Kind != WinnerClaim {
			continue
		}
		wf := c.Workflow()
		t.Run(wf.Name, func(t *testing.T) {
			t.Parallel()
			rec, err := calibrationRunner().RecommendWorkflow(wf)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Config != c.Config {
				t.Fatalf("rules pick %s (row %d), paper reports %s",
					rec.Config.Label(), rec.Row.ID, c.Config.Label())
			}
		})
	}
}

// TestHeadlineEffectSizes pins the paper's stated magnitudes within the
// catalogue's loose bands (shape, not absolute numbers).
func TestHeadlineEffectSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("effect sizes in -short mode")
	}
	for _, c := range Catalogue() {
		if c.Kind != RatioClaim {
			continue
		}
		t.Run(c.Family+"/"+c.name(), func(t *testing.T) {
			t.Parallel()
			if f := c.Check(rowResults(t, c)); !f.Match {
				t.Fatalf("ratio %.3f outside [%.3g, %.3g] (paper: %s)", f.Value, c.Lo, c.Hi, c.Paper)
			}
		})
	}
}
