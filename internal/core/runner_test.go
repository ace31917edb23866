package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pmemsched/internal/numa"
	"pmemsched/internal/platform"
	"pmemsched/internal/pmem"
	"pmemsched/internal/workloads"
)

// TestRunBatchMatchesSerial is the engine's core contract: a batch run
// on the worker pool — computed concurrently and served from cache on
// repetition — returns exactly the results the serial entry points
// produce, field for field, bit for bit.
func TestRunBatchMatchesSerial(t *testing.T) {
	env := DefaultEnv()
	wfs := []string{}
	var jobs []Job
	var want []Result
	for _, wf := range workloads.Suite()[:6] {
		wfs = append(wfs, wf.Name)
		for _, cfg := range Configs {
			serial, err := Run(wf, cfg, env)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, serial)
			jobs = append(jobs, ConfigJob(wf, cfg))
		}
	}

	rt := NewRunner(env, 4)
	for pass := 1; pass <= 2; pass++ {
		got, err := rt.RunBatch(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			res := got[i]
			res.Config = want[i].Config // RunBatch returns deployment-level results
			if !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("pass %d: job %d (%v): batch result differs from serial run\nbatch:  %+v\nserial: %+v",
					pass, i, wfs[i/len(Configs)], res, want[i])
			}
		}
	}
	s := rt.Stats()
	// Second pass must have been served entirely from cache.
	if s.Misses != uint64(len(jobs)) {
		t.Errorf("misses = %d, want %d (every distinct job computed once)", s.Misses, len(jobs))
	}
	if s.Hits+s.Inflight != uint64(len(jobs)) {
		t.Errorf("hits+inflight = %d, want %d (second pass fully cached)", s.Hits+s.Inflight, len(jobs))
	}
}

// TestRunnerSingleflight: identical jobs submitted concurrently are
// computed once and joined, never recomputed.
func TestRunnerSingleflight(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 4)
	const dup = 12
	jobs := make([]Job, dup)
	for i := range jobs {
		jobs[i] = ConfigJob(workloads.GTCReadOnly(8), SLocW)
	}
	results, err := rt.RunBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < dup; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("duplicate job %d returned a different result", i)
		}
	}
	s := rt.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Inflight != dup-1 {
		t.Errorf("hits+inflight = %d, want %d", s.Hits+s.Inflight, dup-1)
	}
}

// TestRunnerWithEnvSeparatesCaches: engines forked with WithEnv share
// the pool and cache storage but never serve one environment's results
// for another's.
func TestRunnerWithEnvSeparatesCaches(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 2)
	gen2 := rt.Env()
	gen2.NewMachine = func() *platform.Machine {
		return platform.New(numa.TestbedConfig(), pmem.Gen2Optane())
	}
	gen2Rt := rt.WithEnv(gen2)

	wf := workloads.MiniAMRReadOnly(16)
	r1, err := rt.Run(wf, SLocW)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := gen2Rt.Run(wf, SLocW)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalSeconds == r2.TotalSeconds {
		t.Fatal("Gen-1 and Gen-2 runs returned the same runtime — cache entries crossed environments")
	}
	s := rt.Stats()
	if s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses (one per environment), 0 hits", s)
	}
	// Each engine's repeat is a hit in the shared cache.
	if _, err := gen2Rt.Run(wf, SLocW); err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.Hits != 1 {
		t.Errorf("hits = %d after repeat, want 1", s.Hits)
	}
}

// TestRunnerErrorsMemoized: a failing run reports its error through
// every entry point, including repeats served from cache.
func TestRunnerErrorsMemoized(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 2)
	wf := workloads.GTCReadOnly(8)
	wf.Iterations = 0 // invalid: fails validation inside the run
	if _, err := rt.Run(wf, SLocW); err == nil {
		t.Fatal("invalid workflow ran")
	}
	if _, err := rt.Run(wf, SLocW); err == nil {
		t.Fatal("cached invalid workflow ran")
	}
	if s := rt.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the failure computed once and replayed once", s)
	}
	// Batch propagates the first error in job order.
	if _, err := rt.RunBatch([]Job{ConfigJob(wf, SLocW)}); err == nil {
		t.Fatal("batch with invalid job succeeded")
	}
}

// TestRunnerPanicSafe is the regression test for the panic leak: a
// panicking execution used to leave its cache entry's done channel
// unclosed and its worker slot held, so every later request for the key
// blocked forever and the pool permanently shrank. The engine must
// instead memoize a deterministic error, release the slot, and unblock
// waiters.
func TestRunnerPanicSafe(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 1) // one worker slot: a leaked slot starves the pool
	st := rt.state

	_, panicErr := st.do(cacheKey{h: 1}, func() (any, error) { panic("kaboom") })
	if panicErr == nil || !strings.Contains(panicErr.Error(), "kaboom") {
		t.Fatalf("panicking exec returned %v, want a memoized panic error", panicErr)
	}

	// The worker slot was released: a fresh key on the 1-slot pool still
	// executes instead of deadlocking.
	v, err := st.do(cacheKey{h: 2}, func() (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("pool starved after panic: got (%v, %v)", v, err)
	}

	// done was closed and the error memoized: a waiter on the poisoned
	// key gets the identical error instead of blocking forever, and the
	// replacement exec never runs.
	got := make(chan error, 1)
	go func() {
		_, err := st.do(cacheKey{h: 1}, func() (any, error) { t.Error("poisoned key re-executed"); return nil, nil })
		got <- err
	}()
	select {
	case err2 := <-got:
		if err2 == nil || err2.Error() != panicErr.Error() {
			t.Errorf("replayed error %v, want %v", err2, panicErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request for the poisoned key blocked")
	}
}

// TestOracleDeterministic: the oracle run twice — across engines and
// across repetitions — yields identical decisions.
func TestOracleDeterministic(t *testing.T) {
	env := DefaultEnv()
	wf := workloads.MiniAMRMatrixMult(16)
	a, err := NewRunner(env, 4).Oracle(wf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(env, 1).Oracle(wf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("oracle decisions differ across engines:\n%+v\n%+v", a, b)
	}
	c, err := Oracle(wf, env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("free Oracle differs from engine Oracle")
	}
}

// TestBestTieBreaksTableIOrder: a constructed makespan tie must always
// resolve to the earlier Table I configuration, never to map or
// completion order.
func TestBestTieBreaksTableIOrder(t *testing.T) {
	results := []Result{
		{Config: SLocW, TotalSeconds: 5},
		{Config: SLocR, TotalSeconds: 5},
		{Config: PLocW, TotalSeconds: 5},
		{Config: PLocR, TotalSeconds: 5},
	}
	if got := Best(results); got.Config != SLocW {
		t.Fatalf("four-way tie resolved to %s, want S-LocW", got.Config.Label())
	}
}

// TestBestFixedTieBreaksTableIOrder: equal fixed-policy makespans
// resolve to the earlier Table I configuration deterministically.
func TestBestFixedTieBreaksTableIOrder(t *testing.T) {
	plan := QueuePlan{FixedMakespans: map[Config]float64{
		SLocW: 10, SLocR: 10, PLocW: 10, PLocR: 10,
	}}
	for i := 0; i < 50; i++ {
		cfg, v := plan.BestFixed()
		if cfg != SLocW || v != 10 {
			t.Fatalf("iteration %d: tie resolved to %s (%g), want S-LocW", i, cfg.Label(), v)
		}
	}
	// Partial maps still scan in Table I order.
	partial := QueuePlan{FixedMakespans: map[Config]float64{PLocR: 3, PLocW: 3}}
	if cfg, _ := partial.BestFixed(); cfg != PLocW {
		t.Fatalf("partial tie resolved to %s, want P-LocW", cfg.Label())
	}
}

// TestScheduleQueueDeterministic: scheduling the same queue twice
// produces identical plans — same items, same makespans, same floats.
func TestScheduleQueueDeterministic(t *testing.T) {
	env := DefaultEnv()
	queue := workloads.Suite()[:4]
	a, err := NewRunner(env, 4).ScheduleQueue(queue)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(env, 2).ScheduleQueue(queue)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("queue plans differ across engines:\n%+v\n%+v", a, b)
	}
}

// TestNormalizedAndRegretZeroWork: a degenerate oracle decision (zero
// best runtime) must not divide by zero — equal-zero entries normalize
// to 1 and nonzero entries are NaN, as is the regret.
func TestNormalizedAndRegretZeroWork(t *testing.T) {
	dec := OracleDecision{
		Workflow: "degenerate",
		Results: []Result{
			{Config: SLocW, TotalSeconds: 0},
			{Config: SLocR, TotalSeconds: 2},
		},
		Best: Result{Config: SLocW, TotalSeconds: 0},
	}
	norm := dec.Normalized()
	if norm[SLocW] != 1 {
		t.Errorf("zero/zero normalized to %g, want 1", norm[SLocW])
	}
	if !math.IsNaN(norm[SLocR]) {
		t.Errorf("nonzero/zero normalized to %g, want NaN", norm[SLocR])
	}
	if got := dec.Regret(SLocW); got != 0 {
		t.Errorf("regret of the zero best = %g, want 0", got)
	}
	if !math.IsNaN(dec.Regret(SLocR)) {
		t.Error("regret against a zero best not NaN")
	}
	// Zero-work queue plans claim no saving instead of dividing by zero.
	plan := QueuePlan{FixedMakespans: map[Config]float64{SLocW: 0}}
	if s := plan.Saving(); s != 0 {
		t.Errorf("zero-fixed saving = %g, want 0", s)
	}
	if s := (QueuePlan{}).Saving(); s != 0 {
		t.Errorf("empty-plan saving = %g, want 0", s)
	}
}

// TestClassifyMemoized: profiling runs share the cache too — the
// recommender and the queue planner never re-profile a workflow.
func TestClassifyMemoized(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 2)
	wf := workloads.GTCMatrixMult(16)
	f1, err := rt.Classify(wf)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := rt.Classify(wf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("memoized classification differs")
	}
	if s := rt.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want one profiling computation and one cache hit", s)
	}
}

// TestRecommendWorkflowMemoMatchesRecommend: the classify entry stores
// its Table II match, and RecommendWorkflow hands that match out on
// every hit. It must equal Recommend over the memoized features, and a
// warm ask must cost one runner request, as a classify hit always has.
// Real features always land on some row, so the "no Table II row" error
// is checked through a planted entry whose object-size class no row
// names: it must come back from the memo, hit after hit, exactly as
// Recommend reports it.
func TestRecommendWorkflowMemoMatchesRecommend(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 2)
	for _, wf := range workloads.Suite() {
		f, err := rt.Classify(wf)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := Recommend(f)
		for hit := 0; hit < 2; hit++ {
			before := rt.Stats()
			got, err := rt.RecommendWorkflow(wf)
			if !reflect.DeepEqual(got, want) || err != wantErr {
				t.Errorf("%s hit %d: RecommendWorkflow = %+v, %v; Recommend(Classify) = %+v, %v", wf.Name, hit, got, err, want, wantErr)
			}
			if after := rt.Stats(); after.Hits != before.Hits+1 || after.Runs() != before.Runs()+1 {
				t.Errorf("%s hit %d: stats %+v then %+v, want one more hit and nothing else", wf.Name, hit, before, after)
			}
		}
	}

	wf := workloads.GTCReadOnly(8)
	f, err := Classify(wf, rt.Env())
	if err != nil {
		t.Fatal(err)
	}
	f.ObjectSize = LargeObjects + 1
	want, wantErr := Recommend(f)
	if wantErr == nil || !strings.Contains(wantErr.Error(), "no Table II row") {
		t.Fatalf("Recommend over an unknown size class: %v, want the no-row error", wantErr)
	}
	done := make(chan struct{})
	close(done)
	rt.state.cache[classifyKey(rt.envKey, &wf)] = &cacheEntry{done: done, value: newClassified(f)}
	for hit := 0; hit < 2; hit++ {
		got, err := rt.RecommendWorkflow(wf)
		if err == nil || err.Error() != wantErr.Error() || !reflect.DeepEqual(got, want) {
			t.Errorf("planted hit %d: RecommendWorkflow = %+v, %v; want %+v, %v", hit, got, err, want, wantErr)
		}
	}
}

// TestRunnerConcurrentCallers hammers one engine from many goroutines
// mixing entry points — the -race backstop for the shared state.
func TestRunnerConcurrentCallers(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 4)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, err := rt.Oracle(workloads.GTCReadOnly(8))
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := rt.RunAll(workloads.MiniAMRReadOnly(8))
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := rt.RecommendWorkflow(workloads.GTCReadOnly(8))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := rt.Stats(); s.Runs() == 0 {
		t.Fatal("no runs recorded")
	}
}

// TestSuiteEquivalenceSerialParallel is the acceptance gate from the
// issue: the full 18-workload suite, all four configurations, rendered
// to strings — the parallel memoized engine's output must be
// byte-identical to the serial seed path's, on a cold and a warm cache.
func TestSuiteEquivalenceSerialParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	env := DefaultEnv()
	render := func(results []Result) string {
		out := ""
		for _, r := range results {
			out += fmt.Sprintf("%s %s total=%.17g wend=%.17g rend=%.17g wsplit=%.17g rsplit=%.17g wio=%.17g rio=%.17g\n",
				r.Workflow, r.Config.Label(), r.TotalSeconds, r.WriterEnd, r.ReaderEnd,
				r.WriterSplit, r.ReaderSplit, r.Writer.IO, r.Reader.IO)
		}
		return out
	}

	var serial []Result
	for _, wf := range workloads.Suite() {
		for _, cfg := range Configs {
			res, err := Run(wf, cfg, env)
			if err != nil {
				t.Fatal(err)
			}
			serial = append(serial, res)
		}
	}
	want := render(serial)

	rt := NewRunner(env, 8)
	for pass := 1; pass <= 2; pass++ {
		var got []Result
		for _, wf := range workloads.Suite() {
			results, err := rt.RunAll(wf)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, results...)
		}
		if g := render(got); g != want {
			t.Fatalf("pass %d: parallel engine output not byte-identical to serial seed output", pass)
		}
	}
	if s := rt.Stats(); s.Hits+s.Inflight == 0 {
		t.Error("warm pass recorded no cache hits")
	}
}

// TestRunnerStatsEntriesAndHitRate: the stats snapshot counts resident
// cache entries and derives the hit rate the daemon's /metrics
// endpoint reports, and stays race-safe when polled while jobs run
// (the -race CI pass exercises the concurrent path).
func TestRunnerStatsEntriesAndHitRate(t *testing.T) {
	rt := NewRunner(DefaultEnv(), 4)
	if s := rt.Stats(); s.Entries != 0 || s.HitRate() != 0 {
		t.Fatalf("fresh engine stats = %+v, want zero entries and hit rate", s)
	}
	wf := workloads.GTCReadOnly(8)
	if _, err := rt.Run(wf, SLocW); err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d after one run, want 1", s.Entries)
	}

	// Poll stats concurrently with a batch of duplicate jobs: the
	// entry count must settle at the number of distinct jobs and the
	// repeats must lift the hit rate above zero.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rt.Stats()
			}
		}
	}()
	jobs := []Job{
		ConfigJob(wf, SLocW), ConfigJob(wf, SLocW),
		ConfigJob(wf, SLocR), ConfigJob(wf, SLocR),
	}
	if _, err := rt.RunBatch(jobs); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	s := rt.Stats()
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2 (two distinct jobs)", s.Entries)
	}
	if s.HitRate() <= 0 || s.HitRate() >= 1 {
		t.Errorf("hit rate = %g, want in (0, 1): repeats hit, distinct jobs missed", s.HitRate())
	}
}

// BenchmarkRunnerHit measures the runner's hit path: the run key's
// fingerprint plus the lookup of a warm key.
func BenchmarkRunnerHit(b *testing.B) {
	rt := NewRunner(DefaultEnv(), 1)
	wf := workloads.GTCReadOnly(16)
	if _, err := rt.Run(wf, SLocW); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(wf, SLocW); err != nil {
			b.Fatal(err)
		}
	}
	if st := rt.Stats(); st.Misses != 1 {
		b.Fatalf("%d misses, want the one warming run", st.Misses)
	}
}
