package workloads

import (
	"reflect"
	"strings"
	"testing"

	"pmemsched/internal/units"
	"pmemsched/internal/workflow"
)

func TestSuiteSize(t *testing.T) {
	suite := Suite()
	// §IV-C: 18 total workloads (2 microbenchmarks + 4 application
	// workflows, each at 3 concurrency levels).
	if len(suite) != 18 {
		t.Fatalf("suite has %d workloads, want 18", len(suite))
	}
	names := map[string]bool{}
	for _, wf := range suite {
		if err := wf.Validate(); err != nil {
			t.Errorf("%s: %v", wf.Name, err)
		}
		if names[wf.Name] {
			t.Errorf("duplicate workload name %s", wf.Name)
		}
		names[wf.Name] = true
		if wf.Iterations != Iterations {
			t.Errorf("%s: %d iterations", wf.Name, wf.Iterations)
		}
	}
}

func TestMicroSnapshotSizes(t *testing.T) {
	// §IV-B: each rank produces a 1 GB snapshot per iteration, so the
	// figure captions' data sizes are 80/160/240 GB for 8/16/24 ranks.
	for _, ranks := range ConcurrencyLevels {
		for _, obj := range []int64{MicroObjectSmall, MicroObjectLarge} {
			wf := MicroWorkflow(obj, ranks)
			if got := wf.Simulation.BytesPerRank(); got != 1*units.GiB {
				t.Errorf("micro-%d@%d: %d bytes per rank-iteration", obj, ranks, got)
			}
			want := int64(ranks) * int64(Iterations) * units.GiB
			if got := wf.TotalBytes(); got != want {
				t.Errorf("micro-%d@%d: total %d, want %d", obj, ranks, got, want)
			}
		}
	}
}

func TestMicroObjectCounts(t *testing.T) {
	small := Micro(MicroObjectSmall)
	// 1 GiB / 2 KiB = 524288 objects ("large number of small objects").
	if got := small.ObjectsPerRank(); got != 524288 {
		t.Fatalf("2K micro has %d objects per rank, want 524288", got)
	}
	large := Micro(MicroObjectLarge)
	if got := large.ObjectsPerRank(); got != 16 {
		t.Fatalf("64MB micro has %d objects per rank, want 16", got)
	}
	if small.ComputePerIteration != 0 || large.ComputePerIteration != 0 {
		t.Fatal("microbenchmark components must have no compute kernel")
	}
}

func TestMicroRejectsNonDividingObjectSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Micro(3000) // does not divide 1 GiB
}

func TestGTCParameters(t *testing.T) {
	gtc := GTC()
	// §VI-A: "GTC uses 229MB objects"; a few large objects per rank.
	if gtc.Objects[0].Bytes != 229*units.MiB {
		t.Errorf("GTC object size %d", gtc.Objects[0].Bytes)
	}
	if gtc.ObjectsPerRank() > 4 {
		t.Errorf("GTC should write a few large objects, has %d", gtc.ObjectsPerRank())
	}
	if gtc.ComputePerIteration <= 0 {
		t.Error("GTC must be compute-intensive")
	}
	// Compute phase must dwarf per-rank I/O volume effects: iteration
	// compute well above one object's transfer time at full per-flow
	// bandwidth (~65 ms).
	if gtc.ComputePerIteration < 0.5 {
		t.Errorf("GTC compute %g too small to be the 'high compute' class", gtc.ComputePerIteration)
	}
}

func TestMiniAMRParameters(t *testing.T) {
	for _, ranks := range ConcurrencyLevels {
		ma := MiniAMR(ranks)
		if ma.Objects[0].Bytes != 4608 {
			t.Errorf("miniAMR object size %d, want 4.5 KiB", ma.Objects[0].Bytes)
		}
		// §VIII: snapshots are made of 528K small objects (global).
		if got := ma.Objects[0].CountPerRank * ranks; got != MiniAMRTotalObjects {
			t.Errorf("miniAMR@%d: %d total objects, want %d", ranks, got, MiniAMRTotalObjects)
		}
	}
}

func TestMiniAMRRejectsBadRankCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MiniAMR(7)
}

func TestAnalyticsKernels(t *testing.T) {
	ro := ReadOnly()
	if ro.ComputePerIteration != 0 || ro.ComputePerObject != 0 {
		t.Error("read-only kernel must not compute")
	}
	mmG := MatrixMultGTC()
	if mmG.ComputePerObject <= 0 {
		t.Error("GTC matrixmult must compute per object")
	}
	mmM := MatrixMultMiniAMR()
	if mmM.ComputePerObject <= 0 {
		t.Error("miniAMR matrixmult must compute per object")
	}
	// §IV-B: the GTC variant does heavy multiplications over large 2D
	// arrays; the miniAMR variant only 5 per small block.
	if mmG.ComputePerObject <= 1000*mmM.ComputePerObject {
		t.Errorf("per-object compute ratio GTC/miniAMR = %g, expected orders of magnitude",
			mmG.ComputePerObject/mmM.ComputePerObject)
	}
}

func TestWorkflowNames(t *testing.T) {
	cases := map[string]string{
		GTCReadOnly(8).Name:       "gtc+readonly/8r",
		GTCMatrixMult(16).Name:    "gtc+matrixmult/16r",
		MiniAMRReadOnly(24).Name:  "miniamr+readonly/24r",
		MiniAMRMatrixMult(8).Name: "miniamr+matrixmult/8r",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
	if !strings.Contains(MicroWorkflow(MicroObjectSmall, 8).Name, "2 KiB") {
		t.Errorf("micro small name %q", MicroWorkflow(MicroObjectSmall, 8).Name)
	}
}

// TestCatalog pins each catalog name to its constructor, in Suite
// order, and rejects a name outside the catalog.
func TestCatalog(t *testing.T) {
	want := []struct {
		name string
		wf   workflow.Spec
	}{
		{"micro-64mb", MicroWorkflow(MicroObjectLarge, 4)},
		{"micro-2k", MicroWorkflow(MicroObjectSmall, 4)},
		{"gtc+readonly", GTCReadOnly(4)},
		{"gtc+matrixmult", GTCMatrixMult(4)},
		{"miniamr+readonly", MiniAMRReadOnly(4)},
		{"miniamr+matrixmult", MiniAMRMatrixMult(4)},
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %d names", names, len(want))
	}
	for i, w := range want {
		if names[i] != w.name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], w.name)
		}
		got, ok := ByName(w.name, 4)
		if !ok || !reflect.DeepEqual(got, w.wf) {
			t.Errorf("ByName(%q, 4) = %v, %v; want %v", w.name, got, ok, w.wf)
		}
	}
	if _, ok := ByName("hpl", 4); ok {
		t.Error("ByName accepted a name outside the catalog")
	}
}

func TestConcurrencyLevels(t *testing.T) {
	if len(ConcurrencyLevels) != 3 || ConcurrencyLevels[0] != 8 ||
		ConcurrencyLevels[1] != 16 || ConcurrencyLevels[2] != 24 {
		t.Fatalf("concurrency levels %v, want [8 16 24]", ConcurrencyLevels)
	}
}
