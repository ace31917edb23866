package experiments

import (
	"slices"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workloads"
)

// TestCatalogueWellFormed checks the claim catalogue without running
// anything: every claim names a catalog workload at a suite
// concurrency level, every band is ordered, finding names are unique
// within a figure (one family), and every suite row has exactly one
// winner claim.
func TestCatalogueWellFormed(t *testing.T) {
	type row struct {
		family string
		ranks  int
	}
	winners := map[row]int{}
	names := map[[2]string]bool{} // family and finding name
	for _, c := range Catalogue() {
		if !slices.Contains(workloads.Names(), c.Family) {
			t.Errorf("%s: family not in workloads.Names()", c.name())
		}
		if !slices.Contains(workloads.ConcurrencyLevels, c.Ranks) {
			t.Errorf("%s %s: ranks not a concurrency level", c.Family, c.name())
		}
		key := [2]string{c.Family, c.name()}
		if names[key] {
			t.Errorf("%s: duplicate finding name %q", c.Family, c.name())
		}
		names[key] = true
		switch c.Kind {
		case WinnerClaim:
			winners[row{c.Family, c.Ranks}]++
		case RatioClaim:
			if c.Name == "" || c.Paper == "" || len(c.Num) == 0 || len(c.Den) == 0 {
				t.Errorf("%s %s: incomplete ratio claim", c.Family, c.name())
			}
			if !(c.Lo <= c.Hi) {
				t.Errorf("%s %s: band [%g, %g] out of order", c.Family, c.name(), c.Lo, c.Hi)
			}
		}
	}
	for _, family := range workloads.Names() {
		for _, ranks := range workloads.ConcurrencyLevels {
			if n := winners[row{family, ranks}]; n != 1 {
				t.Errorf("%s @ %d: %d winner claims, want 1", family, ranks, n)
			}
		}
	}
}

// TestClaimCheck measures each claim kind on made-up runtimes.
func TestClaimCheck(t *testing.T) {
	results := []core.Result{
		{Config: core.SLocW, TotalSeconds: 12},
		{Config: core.SLocR, TotalSeconds: 10},
		{Config: core.PLocW, TotalSeconds: 8},
		{Config: core.PLocR, TotalSeconds: 11},
	}
	for _, tc := range []struct {
		c    Claim
		want Finding
	}{
		{Claim{Ranks: 8, Kind: WinnerClaim, Config: core.PLocW},
			Finding{"best config @ 8 threads", "P-LocW", "P-LocW", true, 1}},
		{Claim{Ranks: 16, Kind: WinnerClaim, Config: core.SLocR},
			Finding{"best config @ 16 threads", "S-LocR", "P-LocW", false, 1.25}},
		{Claim{Ranks: 24, Kind: ModeClaim, Mode: core.Serial},
			Finding{"execution mode @ 24 threads", "serial", "parallel", false, 1.25}},
		{Claim{Ranks: 8, Kind: RatioClaim, Name: "S-LocW vs P-LocW", Num: []core.Config{core.SLocW},
			Den: []core.Config{core.PLocW}, Paper: "p", Lo: 1, Hi: 1.5},
			Finding{"S-LocW vs P-LocW @ 8 threads", "p", "1.50x", true, 1.5}},
		{Claim{Ranks: 8, Kind: RatioClaim, Name: "serial vs P-LocR", Num: modeConfigs(core.Serial),
			Den: []core.Config{core.PLocR}, Paper: "p", Lo: 0.5, Hi: 0.9, Pct: true},
			Finding{"serial vs P-LocR @ 8 threads", "p", "-9.1%", false, 10.0 / 11}},
	} {
		if got := tc.c.Check(results); got != tc.want {
			t.Errorf("Check = %+v, want %+v", got, tc.want)
		}
	}
}
