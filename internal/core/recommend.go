package core

import (
	"fmt"
	"math"
	"slices"

	"pmemsched/internal/workflow"
)

// RuleRow is one row of the paper's Table II: a region of the workflow
// feature space and the configuration recommended for it. Cells may
// allow several levels, exactly as the paper's table does ("low,
// medium or high", "medium, high", ...).
type RuleRow struct {
	ID           int
	SimCompute   []workflow.IOLevel
	SimWrite     []workflow.IOLevel
	AnaCompute   []workflow.IOLevel
	AnaRead      []workflow.IOLevel
	ObjectSize   []SizeClass
	Conc         []ConcClass
	Config       Config
	Illustrative string // the paper's "Illustrative Workflows" column
}

// levels is shorthand for rule construction.
func levels(ls ...workflow.IOLevel) []workflow.IOLevel { return ls }

const (
	lNil  = workflow.LevelNil
	lLow  = workflow.LevelLow
	lMed  = workflow.LevelMedium
	lHigh = workflow.LevelHigh
)

// tableII is the paper's Table II ("Configuration recommendations for
// Workflows") verbatim: ten rows mapping workflow characteristics to a
// scheduling configuration. It is built once: Recommend matches against
// it in place, and TableII hands out deep copies.
var tableII = []RuleRow{
	{1, levels(lNil), levels(lHigh), levels(lNil), levels(lHigh),
		[]SizeClass{LargeObjects}, []ConcClass{LowConc, MediumConc, HighConc},
		SLocW, "64MB workflows: Fig 4a,4b,4c"},
	{2, levels(lHigh), levels(lLow), levels(lLow, lMed, lHigh), levels(lMed, lHigh),
		[]SizeClass{LargeObjects}, []ConcClass{HighConc},
		SLocW, "GTC + Read-Only: Fig 6c; GTC+MatrixMult: Fig 7c"},
	{3, levels(lLow), levels(lHigh), levels(lLow), levels(lHigh),
		[]SizeClass{SmallObjects}, []ConcClass{HighConc},
		SLocW, "miniAMR + Read-Only: Fig 8c"},
	{4, levels(lLow), levels(lHigh), levels(lHigh), levels(lLow),
		[]SizeClass{SmallObjects}, []ConcClass{MediumConc, HighConc},
		SLocW, "miniAMR + Matrixmult: Fig 9b,9c"},
	{5, levels(lLow), levels(lHigh), levels(lNil), levels(lHigh),
		[]SizeClass{SmallObjects}, []ConcClass{HighConc},
		SLocR, "2K workflows: Fig 5c"},
	{6, levels(lHigh), levels(lLow), levels(lLow), levels(lHigh),
		[]SizeClass{LargeObjects}, []ConcClass{MediumConc},
		SLocR, "GTC + Read-Only: Fig 6b"},
	{7, levels(lLow), levels(lHigh), levels(lLow), levels(lHigh),
		[]SizeClass{SmallObjects}, []ConcClass{MediumConc},
		SLocR, "miniAMR + Read-Only: Fig 8b"},
	{8, levels(lLow), levels(lHigh), levels(lHigh), levels(lLow),
		[]SizeClass{SmallObjects}, []ConcClass{LowConc},
		PLocW, "miniAMR + Matrixmult: Fig 9a"},
	{9, levels(lNil, lLow), levels(lHigh), levels(lNil), levels(lMed, lHigh),
		[]SizeClass{SmallObjects}, []ConcClass{LowConc, MediumConc},
		PLocR, "2K workflows: Fig 5a, 5b; miniAMR+Read-Only: Fig 8a"},
	{10, levels(lHigh), levels(lLow), levels(lLow, lMed, lHigh), levels(lHigh),
		[]SizeClass{LargeObjects}, []ConcClass{LowConc, MediumConc},
		PLocR, "GTC + Read-Only: Fig 6a; GTC+MatrixMult: Fig 7a,7b"},
}

// TableII returns a fresh deep copy of the paper's Table II: the
// caller may modify it freely without affecting Recommend.
func TableII() []RuleRow {
	rows := make([]RuleRow, len(tableII))
	for i, r := range tableII {
		r.SimCompute = slices.Clone(r.SimCompute)
		r.SimWrite = slices.Clone(r.SimWrite)
		r.AnaCompute = slices.Clone(r.AnaCompute)
		r.AnaRead = slices.Clone(r.AnaRead)
		r.ObjectSize = slices.Clone(r.ObjectSize)
		r.Conc = slices.Clone(r.Conc)
		rows[i] = r
	}
	return rows
}

// Recommendation is the rule engine's output.
type Recommendation struct {
	Config Config
	// Row is the matched Table II row. Its cell slices are shared with
	// the package's rule table and must not be modified; TableII
	// returns an editable copy.
	Row      RuleRow
	Distance float64 // 0 = exact Table II match
	Features Features
}

// Recommend matches the workflow features against Table II and returns
// the recommended configuration. Object size and concurrency are hard
// constraints (the table partitions on them); the four intensity
// columns match by level distance, so feature tuples the paper did not
// measure still land on the nearest row. Among equally distant rows,
// the more specific row wins (fewer allowed combinations), then the
// lower-numbered one.
func Recommend(f Features) (Recommendation, error) {
	best := Recommendation{Distance: math.Inf(1), Features: f}
	bestSpecificity := math.Inf(1)
	for i := range tableII {
		row := &tableII[i]
		if !containsSize(row.ObjectSize, f.ObjectSize) || !containsConc(row.Conc, f.Conc) {
			continue
		}
		d := levelDist(row.SimCompute, f.SimCompute) +
			levelDist(row.SimWrite, f.SimWrite) +
			levelDist(row.AnaCompute, f.AnaCompute) +
			levelDist(row.AnaRead, f.AnaRead)
		spec := float64(len(row.SimCompute) * len(row.SimWrite) * len(row.AnaCompute) *
			len(row.AnaRead) * len(row.ObjectSize) * len(row.Conc))
		if d < best.Distance || (d == best.Distance && spec < bestSpecificity) {
			best = Recommendation{Config: row.Config, Row: *row, Distance: d, Features: f}
			bestSpecificity = spec
		}
	}
	if math.IsInf(best.Distance, 1) {
		return best, fmt.Errorf("core: no Table II row covers %s", f)
	}
	return best, nil
}

// RecommendWorkflow classifies the workflow (standalone profiling runs
// on the environment's platform) and applies the Table II rules.
func RecommendWorkflow(wf workflow.Spec, env Env) (Recommendation, error) {
	f, err := Classify(wf, env)
	if err != nil {
		return Recommendation{}, err
	}
	return Recommend(f)
}

func containsSize(set []SizeClass, v SizeClass) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

func containsConc(set []ConcClass, v ConcClass) bool {
	for _, c := range set {
		if c == v {
			return true
		}
	}
	return false
}

// levelDist is the distance from a feature level to the nearest level
// a rule cell allows.
func levelDist(allowed []workflow.IOLevel, v workflow.IOLevel) float64 {
	best := math.Inf(1)
	for _, a := range allowed {
		d := math.Abs(float64(a) - float64(v))
		if d < best {
			best = d
		}
	}
	return best
}
