package experiments

import (
	"fmt"
	"math"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// ClaimKind says what a Claim asserts about its row.
type ClaimKind int

const (
	// WinnerClaim: the paper's best configuration is Config.
	WinnerClaim ClaimKind = iota
	// ModeClaim: the paper's best configuration runs in Mode.
	ModeClaim
	// RatioClaim: an effect size, Num's runtime over Den's within
	// [Lo, Hi].
	RatioClaim
)

// Claim is one paper claim about one suite row: a workload family of
// workloads.Names at one of workloads.ConcurrencyLevels. Catalogue
// lists them all; Figs 4-9 render them, the calibration tests assert
// them, and cmd/calibrate scores candidate constants by them.
type Claim struct {
	Family string
	Ranks  int
	Kind   ClaimKind

	Config core.Config // WinnerClaim
	Mode   core.Mode   // ModeClaim

	// RatioClaim: each side is the fastest of its configurations, so a
	// side is one configuration or every configuration of a mode.
	Name     string // the finding's name before " @ N threads"
	Num, Den []core.Config
	Paper    string
	Lo, Hi   float64
	Pct      bool // render as a percentage instead of a ratio
}

// Catalogue returns the paper's per-row claims in the order Figs 4-9
// report them. It is the one place a paper winner, mode or effect-size
// band is written down.
func Catalogue() []Claim {
	sw, sr, pw, pr := core.SLocW, core.SLocR, core.PLocW, core.PLocR
	one := func(cfg core.Config) []core.Config { return []core.Config{cfg} }
	serial, parallel := modeConfigs(core.Serial), modeConfigs(core.Parallel)

	var claims []Claim
	// winners adds the paper's best configuration at each of
	// workloads.ConcurrencyLevels.
	winners := func(family string, byLevel ...core.Config) {
		for i, cfg := range byLevel {
			claims = append(claims, Claim{Family: family, Ranks: workloads.ConcurrencyLevels[i],
				Kind: WinnerClaim, Config: cfg})
		}
	}
	mode := func(family string, ranks int, m core.Mode) {
		claims = append(claims, Claim{Family: family, Ranks: ranks, Kind: ModeClaim, Mode: m})
	}
	effect := func(family string, ranks int, name string, num, den []core.Config,
		paper string, lo, hi float64, pct bool) {
		claims = append(claims, Claim{Family: family, Ranks: ranks, Kind: RatioClaim,
			Name: name, Num: num, Den: den, Paper: paper, Lo: lo, Hi: hi, Pct: pct})
	}

	// Fig 4, §VI-A: bandwidth-bound large-object streaming, where serial
	// execution with local writes dominates ("up to 2.5x better").
	winners("micro-64mb", sw, sw, sw)
	effect("micro-64mb", 24, "S-LocR vs S-LocW", one(sr), one(sw), "up to 2.5x", 1.5, 3.5, false)

	// Fig 5, §VI-B and §VI-D: high software overhead keeps bandwidth
	// unconstrained, so local reads are prioritized; serial wins only at
	// high concurrency via internal-cache contention. The direction
	// reproduces at 8 and 16 threads; at 8 the simulated parallel
	// advantage (~1.5x) overshoots the paper's 10-14%, recorded as
	// measured so the gap is visible. At 24 threads serial beats the best
	// parallel configuration by ~11.5%.
	winners("micro-2k", pr, pr, sr)
	effect("micro-2k", 8, "S-LocR vs P-LocR (direction)", one(sr), one(pr), "P-LocR 10-14% faster", 1.02, 2.2, false)
	effect("micro-2k", 16, "S-LocR vs P-LocR", one(sr), one(pr), "P-LocR 10-14% faster", 1.02, 1.45, false)
	effect("micro-2k", 24, "parallel vs S-LocR", parallel, one(sr), "S-LocR 11.5% faster", 1.02, 1.5, true)

	// Fig 6, §VI: a compute-intensive simulation with a few large
	// objects. Parallel at low concurrency, serial read-priority at
	// medium, serial write-priority at high: the evaluation's most
	// characteristic crossover.
	winners("gtc+readonly", pr, sr, sw)
	effect("gtc+readonly", 24, "S-LocR vs S-LocW", one(sr), one(sw), "S-LocW 6% faster", 1.01, 1.5, false)

	// Fig 7: parallel overlap buys 3-9% over serial at low concurrency.
	winners("gtc+matrixmult", pr, pr, sw)
	effect("gtc+matrixmult", 8, "serial vs P-LocR", serial, one(pr), "parallel 3-9% faster", 1.005, 1.35, true)

	// Fig 8: an I/O-intensive simulation with many small objects.
	winners("miniamr+readonly", pr, sr, sw)
	effect("miniamr+readonly", 16, "P-LocR vs S-LocR", one(pr), one(sr), "S-LocR 6% faster", 1.005, 1.4, false)
	effect("miniamr+readonly", 24, "S-LocR vs S-LocW", one(sr), one(sw), "S-LocW 25% faster", 1.05, 1.9, false)

	// Fig 9, §VI-C: interleaved analytics compute flips the
	// low-concurrency placement toward the simulation. Known deviation
	// (see EXPERIMENTS.md): at 8 and 16 ranks the simulated oracle picks
	// the paper's execution mode but the adjacent placement, with the
	// two placements within ~1-3% of each other. The mode, the
	// first-order decision, and the 24-rank row reproduce exactly.
	winners("miniamr+matrixmult", pw, sw, sw)
	mode("miniamr+matrixmult", 8, core.Parallel)
	mode("miniamr+matrixmult", 16, core.Serial)
	effect("miniamr+matrixmult", 8, "P-LocR vs P-LocW", one(pr), one(pw), "P-LocW 7% faster", 0.95, 1.35, false)
	return claims
}

// Workflow builds the claim's suite row.
func (c Claim) Workflow() workflow.Spec {
	wf, _ := workloads.ByName(c.Family, c.Ranks)
	return wf
}

// name is the claim's rendered finding name.
func (c Claim) name() string {
	switch c.Kind {
	case WinnerClaim:
		return fmt.Sprintf("best config @ %d threads", c.Ranks)
	case ModeClaim:
		return fmt.Sprintf("execution mode @ %d threads", c.Ranks)
	}
	return fmt.Sprintf("%s @ %d threads", c.Name, c.Ranks)
}

// Check measures the claim on its row's results under the Table I
// configurations. The finding's Value is a ratio claim's ratio, or
// for a winner or mode claim the runtime of the paper's choice over
// the best runtime (1 when the paper's choice wins).
func (c Claim) Check(results []core.Result) Finding {
	best := core.Best(results)
	f := Finding{Name: c.name()}
	switch c.Kind {
	case WinnerClaim:
		f.Paper, f.Measured = c.Config.Label(), best.Config.Label()
		f.Match = best.Config == c.Config
		f.Value = ratio(resultOf(results, c.Config).TotalSeconds, best.TotalSeconds)
	case ModeClaim:
		f.Paper, f.Measured = c.Mode.String(), best.Config.Mode.String()
		f.Match = best.Config.Mode == c.Mode
		f.Value = ratio(fastest(results, modeConfigs(c.Mode)), best.TotalSeconds)
	default:
		f.Value = ratio(fastest(results, c.Num), fastest(results, c.Den))
		f.Paper, f.Measured = c.Paper, fmtRatio(f.Value)
		if c.Pct {
			f.Measured = fmtPct(f.Value)
		}
		f.Match = f.Value >= c.Lo && f.Value <= c.Hi
	}
	return f
}

// fastest returns the lowest runtime among the configurations.
func fastest(results []core.Result, cfgs []core.Config) float64 {
	v := math.Inf(1)
	for _, cfg := range cfgs {
		v = math.Min(v, resultOf(results, cfg).TotalSeconds)
	}
	return v
}

// modeConfigs returns the Table I configurations of one execution mode.
func modeConfigs(m core.Mode) []core.Config {
	var out []core.Config
	for _, cfg := range core.Configs {
		if cfg.Mode == m {
			out = append(out, cfg)
		}
	}
	return out
}
