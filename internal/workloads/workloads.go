// Package workloads defines the paper's workflow suite (§IV-B/C): a
// pure-I/O microbenchmark streaming 1 GB per-rank snapshots of 2 KB or
// 64 MB objects, plus application-kernel workflows built from GTC and
// miniAMR simulation proxies coupled with Read-Only and MatrixMult
// analytics kernels.
//
// The real applications are reduced — exactly as the paper reduces
// them — to their streaming-I/O parameters: iteration-cycle composition
// (compute vs I/O time), object size and count, and rank concurrency.
// Compute-phase durations are calibration constants chosen so each
// component's standalone I/O index lands in the qualitative band the
// paper assigns it (GTC: compute-intensive simulation with a few large
// objects; miniAMR: I/O-intensive simulation with many small objects).
package workloads

import (
	"fmt"

	"pmemsched/internal/units"
	"pmemsched/internal/workflow"
)

// Iterations is the per-rank iteration count used across the suite
// (§IV-B: each thread performs 10 iterations).
const Iterations = 10

// Concurrency levels (§IV-B): low, medium and high use 8, 16 and 24
// ranks respectively.
var ConcurrencyLevels = []int{8, 16, 24}

// Microbenchmark snapshot size: each rank produces 1 GiB per iteration,
// so 8/16/24 ranks over 10 iterations stream 80/160/240 GB — the data
// sizes in the Fig 4 and Fig 5 captions.
const microSnapshotPerRank = 1 * units.GiB

// MicroObjectSmall and MicroObjectLarge are the two microbenchmark
// object sizes (§IV-B).
const (
	MicroObjectSmall = 2 * units.KiB
	MicroObjectLarge = 64 * units.MiB
)

// Micro returns the microbenchmark writer component: pure streaming I/O
// with no compute kernel, 1 GiB per rank per iteration split into
// objects of objBytes.
func Micro(objBytes int64) workflow.ComponentSpec {
	if microSnapshotPerRank%objBytes != 0 {
		panic(fmt.Sprintf("workloads: micro object size %d does not divide the 1 GiB snapshot", objBytes))
	}
	return workflow.ComponentSpec{
		Name: fmt.Sprintf("micro-%s", units.FormatBytes(objBytes)),
		Objects: []workflow.ObjectSpec{{
			Bytes:        objBytes,
			CountPerRank: int(microSnapshotPerRank / objBytes),
		}},
	}
}

// GTCObjectBytes is the checkpoint object size of the GTC proxy
// (§VI-A: "GTC uses 229MB objects").
const GTCObjectBytes = 229 * units.MiB

// gtcComputePerIteration calibrates GTC's particle-push compute phase
// so the standalone simulation I/O index is low (the paper labels GTC's
// simulation compute "high" and its write intensity "low").
const gtcComputePerIteration = 2.294 // seconds (calibrated)

// GTC returns the Gyrokinetic Toroidal Code simulation proxy: a
// three-dimensional particle-in-cell kernel whose checkpoint is a few
// large 2D/3D arrays. The paper weak-scales GTC via the npartdom,
// micell and mecell input parameters; in this proxy, weak scaling is
// the (fixed) per-rank object stream replicated across ranks.
func GTC() workflow.ComponentSpec {
	return workflow.ComponentSpec{
		Name:                "gtc",
		ComputePerIteration: gtcComputePerIteration,
		Objects: []workflow.ObjectSpec{{
			Bytes:        GTCObjectBytes,
			CountPerRank: 1,
		}},
	}
}

// MiniAMR snapshot composition (§IV-B, §VIII): snapshots are made of
// 528K small objects of ~4.5 KB (ghost-exchanged stencil blocks),
// divided evenly among ranks (strong scaling of the fixed unit-cube
// domain). 528000 divides evenly by 8, 16 and 24.
const (
	MiniAMRObjectBytes  = 4608 // 4.5 KiB
	MiniAMRTotalObjects = 528000
)

// miniAMRComputePerIteration calibrates the seven-point stencil sweep
// so the standalone simulation I/O index is high (the paper labels
// miniAMR's simulation compute "low" and its write intensity "high").
const miniAMRComputePerIteration = 0.1105 // seconds

// MiniAMR returns the miniAMR simulation proxy for the given rank
// count: a seven-point stencil on a block-refined unit cube whose
// snapshot is many small blocks.
func MiniAMR(ranks int) workflow.ComponentSpec {
	if ranks <= 0 || MiniAMRTotalObjects%ranks != 0 {
		panic(fmt.Sprintf("workloads: miniAMR rank count %d must evenly divide %d objects", ranks, MiniAMRTotalObjects))
	}
	return workflow.ComponentSpec{
		Name:                "miniamr",
		ComputePerIteration: miniAMRComputePerIteration,
		Objects: []workflow.ObjectSpec{{
			Bytes:        MiniAMRObjectBytes,
			CountPerRank: MiniAMRTotalObjects / ranks,
		}},
	}
}

// ReadOnly returns the read-only analytics kernel (§IV-B): it fetches
// every object of the paired writer and performs no compute — an
// I/O-heavy analytics with insignificant compute phase. This is the
// microbenchmark's reader.
func ReadOnly() workflow.AnalyticsKernel {
	return workflow.AnalyticsKernel{Name: "readonly"}
}

// readOnlyAppTouch is the per-object processing the application
// read-only kernel performs: it at least parses each object's header
// and descriptor (the microbenchmark reader does not even that). The
// distinction matters to Table II, which labels the application
// workflows' read-only analytics compute "low" (rows 3, 6, 7) but the
// 2K/64MB microbenchmark's "Nil" (rows 1, 5, 9).
const readOnlyAppTouch = 0.8 * units.Microsecond

// ReadOnlyApp returns the read-only analytics kernel as deployed with
// the application workflows (GTC, miniAMR): insignificant — but
// non-zero — per-object processing.
func ReadOnlyApp() workflow.AnalyticsKernel {
	return workflow.AnalyticsKernel{Name: "readonly", ComputePerObject: readOnlyAppTouch}
}

// matrixMultGTCPerObject calibrates the GTC-variant MatrixMult kernel:
// 10 million multiplications over large 2D arrays per checkpoint
// object, making the analytics compute-dominated.
const matrixMultGTCPerObject = 0.368 // seconds per 229 MB object

// MatrixMultGTC returns the compute-heavy analytics kernel used with
// GTC: matrix multiplication over each large object read from the
// paired writer.
func MatrixMultGTC() workflow.AnalyticsKernel {
	return workflow.AnalyticsKernel{
		Name:             "matrixmult",
		ComputePerObject: matrixMultGTCPerObject,
	}
}

// matrixMultMiniAMRPerObject calibrates the miniAMR-variant MatrixMult
// kernel: only 5 multiplications per 4.5 KB block, but across 528K
// blocks per snapshot the aggregate compute phase is still large
// relative to the I/O (§IV-B).
const matrixMultMiniAMRPerObject = 8.0 * units.Microsecond

// MatrixMultMiniAMR returns the compute analytics kernel used with
// miniAMR.
func MatrixMultMiniAMR() workflow.AnalyticsKernel {
	return workflow.AnalyticsKernel{
		Name:             "matrixmult",
		ComputePerObject: matrixMultMiniAMRPerObject,
	}
}

// Workload constructors for the full suite. Names follow the paper's
// figure captions.

// MicroWorkflow couples the microbenchmark writer with the read-only
// reader ("Benchmark Writer + Reader", Figs 4 and 5).
func MicroWorkflow(objBytes int64, ranks int) workflow.Spec {
	name := fmt.Sprintf("micro-%s/%dr", units.FormatBytes(objBytes), ranks)
	return workflow.Couple(name, Micro(objBytes), ReadOnly(), ranks, Iterations)
}

// GTCReadOnly builds "GTC + Read only" (Fig 6).
func GTCReadOnly(ranks int) workflow.Spec {
	return workflow.Couple(fmt.Sprintf("gtc+readonly/%dr", ranks), GTC(), ReadOnlyApp(), ranks, Iterations)
}

// GTCMatrixMult builds "GTC + matrixmult" (Fig 7).
func GTCMatrixMult(ranks int) workflow.Spec {
	return workflow.Couple(fmt.Sprintf("gtc+matrixmult/%dr", ranks), GTC(), MatrixMultGTC(), ranks, Iterations)
}

// MiniAMRReadOnly builds "miniAMR + Read only" (Fig 8).
func MiniAMRReadOnly(ranks int) workflow.Spec {
	return workflow.Couple(fmt.Sprintf("miniamr+readonly/%dr", ranks), MiniAMR(ranks), ReadOnlyApp(), ranks, Iterations)
}

// MiniAMRMatrixMult builds "miniAMR + matrixmult" (Fig 9).
func MiniAMRMatrixMult(ranks int) workflow.Spec {
	return workflow.Couple(fmt.Sprintf("miniamr+matrixmult/%dr", ranks), MiniAMR(ranks), MatrixMultMiniAMR(), ranks, Iterations)
}

// Suite returns all 18 workloads of the paper (§IV-C): the two
// microbenchmarks and the four application workflows, each at the
// three concurrency levels.
func Suite() []workflow.Spec {
	var suite []workflow.Spec
	for _, c := range catalog {
		for _, r := range ConcurrencyLevels {
			suite = append(suite, c.build(r))
		}
	}
	return suite
}

// catalog names the six workflow families in the paper's figure order,
// which is Suite's. The CLIs and the daemon resolve a workload name
// through it.
var catalog = []struct {
	name  string
	build func(ranks int) workflow.Spec
}{
	{"micro-64mb", func(r int) workflow.Spec { return MicroWorkflow(MicroObjectLarge, r) }},
	{"micro-2k", func(r int) workflow.Spec { return MicroWorkflow(MicroObjectSmall, r) }},
	{"gtc+readonly", GTCReadOnly},
	{"gtc+matrixmult", GTCMatrixMult},
	{"miniamr+readonly", MiniAMRReadOnly},
	{"miniamr+matrixmult", MiniAMRMatrixMult},
}

// Names returns the catalog workload names, in Suite order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, c := range catalog {
		names[i] = c.name
	}
	return names
}

// ByName builds the catalog workload name at the given rank count. It
// reports false for a name outside Names.
func ByName(name string, ranks int) (workflow.Spec, bool) {
	for _, c := range catalog {
		if c.name == name {
			return c.build(ranks), true
		}
	}
	return workflow.Spec{}, false
}
