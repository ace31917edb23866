package core

import (
	"testing"

	"pmemsched/internal/workflow"
)

func TestTableIIShape(t *testing.T) {
	rows := TableII()
	if len(rows) != 10 {
		t.Fatalf("Table II has %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if r.ID != i+1 {
			t.Errorf("row %d has ID %d", i, r.ID)
		}
		if len(r.SimCompute) == 0 || len(r.SimWrite) == 0 || len(r.AnaCompute) == 0 ||
			len(r.AnaRead) == 0 || len(r.ObjectSize) == 0 || len(r.Conc) == 0 {
			t.Errorf("row %d has an empty cell", r.ID)
		}
		if r.Illustrative == "" {
			t.Errorf("row %d missing illustrative workflows", r.ID)
		}
	}
	// The paper's per-row configurations.
	wantConfigs := []Config{SLocW, SLocW, SLocW, SLocW, SLocR, SLocR, SLocR, PLocW, PLocR, PLocR}
	for i, r := range rows {
		if r.Config != wantConfigs[i] {
			t.Errorf("row %d config %s, want %s", r.ID, r.Config, wantConfigs[i])
		}
	}
}

func TestTableIICoversFeatureSpace(t *testing.T) {
	// Every (object size, concurrency) cell must have at least one row,
	// so Recommend never fails on the hard constraints.
	for _, size := range []SizeClass{SmallObjects, LargeObjects} {
		for _, conc := range []ConcClass{LowConc, MediumConc, HighConc} {
			found := false
			for _, r := range TableII() {
				if containsSize(r.ObjectSize, size) && containsConc(r.Conc, conc) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no row covers %s objects at %s concurrency", size, conc)
			}
		}
	}
}

// feat builds a Features tuple directly (bypassing profiling).
func feat(sc, sw, ac, ar workflow.IOLevel, size SizeClass, conc ConcClass) Features {
	return Features{SimCompute: sc, SimWrite: sw, AnaCompute: ac, AnaRead: ar, ObjectSize: size, Conc: conc}
}

func TestRecommendExactRows(t *testing.T) {
	// A representative feature tuple for each Table II row must map
	// back to that row's configuration with distance 0.
	cases := []struct {
		f    Features
		want Config
		row  int
	}{
		{feat(lNil, lHigh, lNil, lHigh, LargeObjects, HighConc), SLocW, 1},
		{feat(lHigh, lLow, lMed, lHigh, LargeObjects, HighConc), SLocW, 2},
		{feat(lLow, lHigh, lLow, lHigh, SmallObjects, HighConc), SLocW, 3},
		{feat(lLow, lHigh, lHigh, lLow, SmallObjects, HighConc), SLocW, 4},
		{feat(lLow, lHigh, lNil, lHigh, SmallObjects, HighConc), SLocR, 5},
		{feat(lHigh, lLow, lLow, lHigh, LargeObjects, MediumConc), SLocR, 6},
		{feat(lLow, lHigh, lLow, lHigh, SmallObjects, MediumConc), SLocR, 7},
		{feat(lLow, lHigh, lHigh, lLow, SmallObjects, LowConc), PLocW, 8},
		{feat(lNil, lHigh, lNil, lHigh, SmallObjects, LowConc), PLocR, 9},
		{feat(lHigh, lLow, lHigh, lHigh, LargeObjects, LowConc), PLocR, 10},
	}
	for _, c := range cases {
		rec, err := Recommend(c.f)
		if err != nil {
			t.Fatalf("row %d: %v", c.row, err)
		}
		if rec.Config != c.want {
			t.Errorf("row %d: got %s (row %d), want %s", c.row, rec.Config, rec.Row.ID, c.want)
		}
		if rec.Distance != 0 {
			t.Errorf("row %d: distance %g, want 0 (tuple %s matched row %d)", c.row, rec.Distance, c.f, rec.Row.ID)
		}
	}
}

func TestRecommendRow3Vs5Disambiguation(t *testing.T) {
	// Rows 3 and 5 differ only in analytics compute (low vs nil): the
	// miniAMR read-only analytics does light per-block processing
	// (row 3 → S-LocW) while the microbenchmark reader does literally
	// nothing (row 5 → S-LocR). The recommender must keep them apart.
	r3, err := Recommend(feat(lLow, lHigh, lLow, lHigh, SmallObjects, HighConc))
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Recommend(feat(lLow, lHigh, lNil, lHigh, SmallObjects, HighConc))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Config != SLocW || r5.Config != SLocR {
		t.Fatalf("rows 3/5 collapsed: %s / %s", r3.Config, r5.Config)
	}
}

func TestRecommendNearestRowForUnseenTuple(t *testing.T) {
	// A tuple the paper never measured: medium analytics compute with
	// medium reads, small objects, high concurrency. It must land on a
	// small/high row with positive distance rather than fail.
	rec, err := Recommend(feat(lLow, lHigh, lMed, lMed, SmallObjects, HighConc))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Distance <= 0 {
		t.Fatal("unseen tuple matched exactly?")
	}
	if rec.Row.ID != 3 && rec.Row.ID != 4 && rec.Row.ID != 5 {
		t.Fatalf("landed on row %d (not a small/high row)", rec.Row.ID)
	}
}

func TestRecommendSpecificityTieBreak(t *testing.T) {
	// GTC+ReadOnly at medium concurrency (analytics compute nil) is
	// equidistant from row 6 (medium only) and row 10 (low, medium);
	// the more specific row 6 must win — it is the paper's Fig 6b
	// outcome.
	rec, err := Recommend(feat(lHigh, lLow, lNil, lHigh, LargeObjects, MediumConc))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Row.ID != 6 || rec.Config != SLocR {
		t.Fatalf("got row %d (%s), want row 6 (S-LocR)", rec.Row.ID, rec.Config)
	}
}

func TestConcClassOf(t *testing.T) {
	cases := map[int]ConcClass{1: LowConc, 8: LowConc, 9: MediumConc, 16: MediumConc, 17: HighConc, 24: HighConc, 28: HighConc}
	for ranks, want := range cases {
		if got := ConcClassOf(ranks); got != want {
			t.Errorf("ConcClassOf(%d) = %s, want %s", ranks, got, want)
		}
	}
}

func TestSizeClassStrings(t *testing.T) {
	if SmallObjects.String() != "small" || LargeObjects.String() != "large" {
		t.Error("size class strings")
	}
	if LowConc.String() != "low" || MediumConc.String() != "medium" || HighConc.String() != "high" {
		t.Error("conc class strings")
	}
}

// Property: Recommend is total — every feature tuple in the entire
// space (4 levels^4 intensities x 2 sizes x 3 concurrencies = 1536
// tuples) resolves to some Table II row without error.
func TestRecommendTotalOverFeatureSpace(t *testing.T) {
	levels := []workflow.IOLevel{lNil, lLow, lMed, lHigh}
	count := 0
	for _, sc := range levels {
		for _, sw := range levels {
			for _, ac := range levels {
				for _, ar := range levels {
					for _, size := range []SizeClass{SmallObjects, LargeObjects} {
						for _, conc := range []ConcClass{LowConc, MediumConc, HighConc} {
							rec, err := Recommend(feat(sc, sw, ac, ar, size, conc))
							if err != nil {
								t.Fatalf("Recommend(%s) failed: %v", feat(sc, sw, ac, ar, size, conc), err)
							}
							if rec.Row.ID < 1 || rec.Row.ID > 10 {
								t.Fatalf("row %d out of Table II", rec.Row.ID)
							}
							count++
						}
					}
				}
			}
		}
	}
	if count != 1536 {
		t.Fatalf("covered %d tuples", count)
	}
}

// Property: hard constraints hold — the matched row always permits the
// tuple's object size and concurrency.
func TestRecommendHonorsHardConstraints(t *testing.T) {
	levels := []workflow.IOLevel{lNil, lLow, lMed, lHigh}
	for _, size := range []SizeClass{SmallObjects, LargeObjects} {
		for _, conc := range []ConcClass{LowConc, MediumConc, HighConc} {
			for _, sc := range levels {
				for _, ar := range levels {
					rec, err := Recommend(feat(sc, lHigh, lLow, ar, size, conc))
					if err != nil {
						t.Fatal(err)
					}
					if !containsSize(rec.Row.ObjectSize, size) || !containsConc(rec.Row.Conc, conc) {
						t.Fatalf("row %d violates hard constraints for %s/%s", rec.Row.ID, size, conc)
					}
				}
			}
		}
	}
}

// TestTableIICopyIsolated: TableII hands out a deep copy, so a caller
// that rewrites every cell of it leaves Recommend's answers unchanged.
func TestTableIICopyIsolated(t *testing.T) {
	f := feat(lLow, lHigh, lHigh, lLow, SmallObjects, LowConc)
	before, err := Recommend(f)
	if err != nil {
		t.Fatal(err)
	}
	rows := TableII()
	for i := range rows {
		r := &rows[i]
		for _, cell := range [][]workflow.IOLevel{r.SimCompute, r.SimWrite, r.AnaCompute, r.AnaRead} {
			for k := range cell {
				cell[k] = lNil
			}
		}
		for k := range r.ObjectSize {
			r.ObjectSize[k] = LargeObjects
		}
		for k := range r.Conc {
			r.Conc[k] = HighConc
		}
		r.Config = SLocW
		r.Illustrative = "edited"
	}
	after, err := Recommend(f)
	if err != nil {
		t.Fatal(err)
	}
	if after.Config != before.Config || after.Row.ID != before.Row.ID || after.Distance != before.Distance ||
		after.Row.Illustrative != before.Row.Illustrative || after.Row.Conc[0] != before.Row.Conc[0] {
		t.Fatalf("editing TableII's copy changed Recommend: before %+v, after %+v", before, after)
	}
	if fresh := TableII(); fresh[7].Config != PLocW || fresh[7].SimWrite[0] != lHigh {
		t.Fatalf("a second TableII call returned the edited rows: %+v", fresh[7])
	}
}

// TestRecommendAllocFree: the rule match reads the package table in
// place and allocates nothing.
func TestRecommendAllocFree(t *testing.T) {
	f := feat(lHigh, lLow, lMed, lHigh, LargeObjects, HighConc)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Recommend(f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Recommend allocates %v times per call, want 0", allocs)
	}
}
