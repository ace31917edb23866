package pmemsched_test

// One benchmark per table and figure of the paper's evaluation: each
// regenerates the artifact end to end on the simulated platform (all
// configurations, all concurrency levels) and fails the run if the
// experiment errors. Use
//
//	go test -bench=. -benchmem
//
// to regenerate everything; -bench=BenchmarkFig4 for one artifact. The
// rendered rows/series are printed by cmd/wfsuite; the benchmarks
// measure the cost of regeneration itself and double as end-to-end
// smoke coverage of the full pipeline.

import (
	"testing"

	"pmemsched"
)

// benchExperiment runs one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := pmemsched.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	env := pmemsched.DefaultEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration: the benchmark measures the cost
		// of regenerating the artifact, not of hitting a warm cache.
		rep, err := exp.Run(pmemsched.NewRunner(env, 0))
		if err != nil {
			b.Fatal(err)
		}
		if ok, total := rep.Matched(); total > 0 && ok == 0 {
			b.Fatalf("%s: no paper claims matched (%d checks)", id, total)
		}
	}
}

// BenchmarkFig1 regenerates the motivation figure: miniAMR workflows
// under configurations tuned for the other's analytics kernel.
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkTable1 regenerates Table I (the configuration summary).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkFig3 regenerates the workflow parameter space (measured I/O
// indexes for the application workflows).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Fig 4: the 64 MB-object microbenchmark at
// 8/16/24 threads under all four configurations.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Fig 5: the 2 KB-object microbenchmark.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Fig 6: GTC + Read-Only.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Fig 7: GTC + MatrixMult.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Fig 8: miniAMR + Read-Only.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Fig 9: miniAMR + MatrixMult.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig 10: runtimes normalized to the
// fastest configuration for every application workflow.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable2 regenerates Table II: classify every suite workload,
// apply the recommendation rules, and validate against the oracle.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkStackComparison regenerates the §VII storage-mechanism
// comparison (NOVA vs NVStream).
func BenchmarkStackComparison(b *testing.B) { benchExperiment(b, "stackcmp") }

// BenchmarkAblations regenerates the device-model ablations (which
// modeled mechanism backs which scheduling rule).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkSingleRun measures the cost of one workflow execution under
// one configuration — the simulator's unit of work.
func BenchmarkSingleRun(b *testing.B) {
	wf := pmemsched.GTCReadOnly(16)
	env := pmemsched.DefaultEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pmemsched.Run(wf, pmemsched.SLocW, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracle measures a full four-configuration oracle decision.
func BenchmarkOracle(b *testing.B) {
	wf := pmemsched.MiniAMRReadOnly(16)
	env := pmemsched.DefaultEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pmemsched.Oracle(wf, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassify measures the profiling+classification step the
// auto-scheduler performs per workflow.
func BenchmarkClassify(b *testing.B) {
	wf := pmemsched.MiniAMRMatrixMult(16)
	env := pmemsched.DefaultEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pmemsched.Classify(wf, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep regenerates the extension crossover map (object size
// x concurrency grid of oracle-best configurations).
func BenchmarkSweep(b *testing.B) { benchExperiment(b, "sweep") }

// BenchmarkGen2Transfer regenerates the rule-robustness experiment on
// the Gen-2 Optane model.
func BenchmarkGen2Transfer(b *testing.B) { benchExperiment(b, "gen2") }

// BenchmarkJitterRobustness regenerates the load-imbalance robustness
// experiment.
func BenchmarkJitterRobustness(b *testing.B) { benchExperiment(b, "jitter") }

// BenchmarkPlacementSpace regenerates the four-socket deployment-space
// search (validating the paper's Fig 2 pruning).
func BenchmarkPlacementSpace(b *testing.B) { benchExperiment(b, "placement") }

// BenchmarkOnlineSched runs the bundled 18-workload arrival trace
// through the online cluster scheduler at every load factor, comparing
// the PMEM-aware policy against each fixed site-wide configuration.
func BenchmarkOnlineSched(b *testing.B) { benchExperiment(b, "online") }

// BenchmarkFaultSched runs the online trace on an unreliable 2-node
// cluster at three seeded failure rates, with and without
// checkpoint-restart.
func BenchmarkFaultSched(b *testing.B) { benchExperiment(b, "faults") }

// BenchmarkInterferenceSched runs the bandwidth-heavy trace through the
// fluid reflow engine at every load factor, comparing each oblivious
// policy against its interference-aware variant.
func BenchmarkInterferenceSched(b *testing.B) { benchExperiment(b, "interference") }

// BenchmarkDAGTuning regenerates the DAG experiment: per-stage
// coordinate-descent tuning of the fan-out, fan-in and diamond DAGs
// against their best uniform configuration.
func BenchmarkDAGTuning(b *testing.B) { benchExperiment(b, "dag") }

// BenchmarkTiering regenerates the multi-tier memory experiment: every
// tier policy swept over Table I for each workload class, plus the
// fresh-engine determinism rerun.
func BenchmarkTiering(b *testing.B) { benchExperiment(b, "tiering") }
