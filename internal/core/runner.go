package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pmemsched/internal/workflow"
)

// Job is one unit of work for the run engine: a workflow executed
// under an explicit deployment.
type Job struct {
	Workflow   workflow.Spec
	Deployment Deployment
}

// ConfigJob builds the job for a Table I configuration: the workflow
// under the configuration's canonical two-socket deployment.
func ConfigJob(wf workflow.Spec, cfg Config) Job {
	return Job{Workflow: wf, Deployment: cfg.Deployment()}
}

// RunnerStats counts the engine's cache traffic.
type RunnerStats struct {
	// Hits served a result from a completed cache entry.
	Hits uint64
	// Misses executed a run (or a profiling pass) and filled the cache.
	Misses uint64
	// Inflight joined an identical execution already in progress
	// instead of duplicating it.
	Inflight uint64
	// Entries is the number of memoized results resident in the cache
	// (completed or executing), a direct memory-footprint signal for
	// long-running services.
	Entries uint64
}

// Runs returns the total requests the engine answered.
func (s RunnerStats) Runs() uint64 { return s.Hits + s.Misses + s.Inflight }

// HitRate returns the fraction of requests served without executing:
// (hits + in-flight joins) / runs, or 0 before any request. This is
// the cache effectiveness number wfschedd's /metrics reports.
func (s RunnerStats) HitRate() float64 {
	runs := s.Runs()
	if runs == 0 {
		return 0
	}
	return float64(s.Hits+s.Inflight) / float64(runs)
}

// cacheEntry is one memoized execution. done is closed when value/err
// are final; late arrivals wait on it instead of re-executing
// (single-flight semantics).
type cacheEntry struct {
	done  chan struct{}
	value any
	err   error
}

// runnerState is the shared half of a Runner: the bounded worker pool,
// the content-keyed result cache, and the traffic counters. Runners
// derived via WithEnv share one state, so a multi-environment workload
// (stack comparisons, device ablations) draws from a single pool and a
// single cache — keys embed the environment fingerprint, so entries
// never cross environments.
type runnerState struct {
	sem   chan struct{}
	mu    sync.Mutex
	cache map[cacheKey]*cacheEntry

	hits, misses, inflight atomic.Uint64
}

// Runner is a concurrent, memoizing run engine. Runs are pure — the
// environment hands out a fresh machine and stack per execution and the
// simulation kernel is deterministic — so the engine executes jobs on a
// bounded worker pool and memoizes results by content fingerprint
// (workflow spec + deployment + environment identity). Identical jobs
// submitted concurrently are coalesced into one execution.
//
// All results are bit-identical to serial execution: parallelism and
// caching change only wall-clock time, never outputs.
type Runner struct {
	env    Env
	envKey uint64
	state  *runnerState
}

// NewRunner builds a run engine over the environment with the given
// worker-pool size; workers <= 0 selects GOMAXPROCS.
func NewRunner(env Env, workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		env:    env,
		envKey: env.fingerprint(),
		state: &runnerState{
			sem:   make(chan struct{}, workers),
			cache: make(map[cacheKey]*cacheEntry),
		},
	}
}

// WithEnv returns a runner over a different environment sharing this
// runner's worker pool, cache, and counters.
func (r *Runner) WithEnv(env Env) *Runner {
	return &Runner{env: env, envKey: env.fingerprint(), state: r.state}
}

// Env returns the environment the runner executes in.
func (r *Runner) Env() Env { return r.env }

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return cap(r.state.sem) }

// Stats returns a snapshot of the cache traffic counters. The counters
// are lock-free atomics; the entry count takes the cache lock briefly,
// so Stats is safe to call concurrently with running jobs (the
// /metrics endpoint polls it under load).
func (r *Runner) Stats() RunnerStats {
	r.state.mu.Lock()
	entries := uint64(len(r.state.cache))
	r.state.mu.Unlock()
	return RunnerStats{
		Hits:     r.state.hits.Load(),
		Misses:   r.state.misses.Load(),
		Inflight: r.state.inflight.Load(),
		Entries:  entries,
	}
}

// fanOut invokes fn(i) for every i in [0, n) from at most workers
// goroutines. The semaphore in do already bounds concurrent
// executions, but goroutine-per-item fan-out still creates one
// (stack-owning) goroutine per item; fanOut caps the spawned
// goroutines at the pool size, so a queue of ten thousand workflows
// costs pool-many goroutines rather than ten thousand parked ones.
//
// Workers pull indexes from a shared atomic counter, so the set of
// (i, goroutine) pairings is scheduling-dependent — callers must make
// fn(i) write only to the i-th slot of pre-sized slices, which keeps
// results independent of the pairing.
func fanOut(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// do answers a request for key, executing exec on the worker pool at
// most once per key. Concurrent requests for an in-flight key wait for
// the first execution; later requests are served from the cache.
// Errors are memoized too — a failing job fails identically on replay.
//
// A panicking exec is converted into a memoized error rather than left
// to unwind: the worker slot is released and done is closed under
// defer, so neither the pool nor waiters on the same key can leak. The
// panic value folds into the error, making replays of the poisoned key
// deterministic.
func (st *runnerState) do(key cacheKey, exec func() (any, error)) (any, error) {
	st.mu.Lock()
	if e, ok := st.cache[key]; ok {
		select {
		case <-e.done:
			st.hits.Add(1)
		default:
			st.inflight.Add(1)
		}
		st.mu.Unlock()
		<-e.done
		return e.value, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	st.cache[key] = e
	st.mu.Unlock()
	st.misses.Add(1)

	st.sem <- struct{}{} // acquire a worker slot
	func() {
		defer func() {
			<-st.sem
			if r := recover(); r != nil {
				e.value, e.err = nil, fmt.Errorf("core: run panicked: %v", r)
			}
			close(e.done)
		}()
		e.value, e.err = exec()
	}()
	return e.value, e.err
}

// RunDeployment executes (or recalls) the workflow under an explicit
// deployment. The cache holds the Result itself, not a *Result: a hit
// then copies it twice on its way out of Run instead of once, but the
// pointer-holding miss path timed about 5% slower on the simulation-
// heavy experiments (fig8, tab2), with the kernel's code unchanged.
func (r *Runner) RunDeployment(wf workflow.Spec, dep Deployment) (Result, error) {
	v, err := r.state.do(runKey(r.envKey, &wf, dep), func() (any, error) {
		res, _, err := RunDeployment(wf, dep, r.env, false)
		return res, err
	})
	if err != nil {
		return Result{}, err
	}
	return v.(Result), nil
}

// Run executes (or recalls) the workflow under a Table I configuration.
func (r *Runner) Run(wf workflow.Spec, cfg Config) (Result, error) {
	res, err := r.RunDeployment(wf, cfg.Deployment())
	if err != nil {
		return Result{}, err
	}
	res.Config = cfg
	return res, nil
}

// RunBatch executes the jobs on the worker pool and returns their
// results in job order. Duplicate jobs within the batch (or across
// batches on the same state) execute once. The first error in job
// order is returned; remaining jobs still run, so a retried batch is
// served from the cache.
func (r *Runner) RunBatch(jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	fanOut(len(jobs), r.Workers(), func(i int) {
		results[i], errs[i] = r.RunDeployment(jobs[i].Workflow, jobs[i].Deployment)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunAll executes the workflow under every Table I configuration and
// returns the results in Configs order.
func (r *Runner) RunAll(wf workflow.Spec) ([]Result, error) {
	jobs := make([]Job, len(Configs))
	for i, cfg := range Configs {
		jobs[i] = ConfigJob(wf, cfg)
	}
	results, err := r.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	for i, cfg := range Configs {
		results[i].Config = cfg
	}
	return results, nil
}

// classified is one memoized classification: the workflow's features
// and their Table II match (matchRow's row and distance). The match is
// a pure function of the features, so it is made once, on the miss,
// and a RecommendWorkflow hit builds its answer from it instead of
// rerunning the match.
type classified struct {
	features Features
	row      int
	dist     float64
}

// newClassified builds the classify entry for the features.
func newClassified(f Features) *classified {
	row, dist := matchRow(&f)
	return &classified{features: f, row: row, dist: dist}
}

// classify answers one classify request with the memoized entry.
func (r *Runner) classify(wf *workflow.Spec) (*classified, error) {
	v, err := r.state.do(classifyKey(r.envKey, wf), func() (any, error) {
		f, err := Classify(*wf, r.env)
		if err != nil {
			return nil, err
		}
		return newClassified(f), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*classified), nil
}

// Classify profiles the workflow's components standalone (memoized by
// spec and environment) and buckets them into Table II's vocabulary.
func (r *Runner) Classify(wf workflow.Spec) (Features, error) {
	c, err := r.classify(&wf)
	if err != nil {
		return Features{}, err
	}
	return c.features, nil
}

// RecommendWorkflow classifies the workflow (memoized profiling runs)
// and applies the Table II rules, whose match is memoized with the
// classification.
func (r *Runner) RecommendWorkflow(wf workflow.Spec) (Recommendation, error) {
	c, err := r.classify(&wf)
	if err != nil {
		return Recommendation{}, err
	}
	return recommendation(c.features, c.row, c.dist)
}
