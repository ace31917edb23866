package schedd

import (
	"bytes"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
)

// The recommend micro-batcher. Handlers do not call the run engine
// directly: they enqueue work items, and a small pool of collector
// goroutines gathers items for a batch window (or until the batch
// fills) and executes the whole batch as one Runner.RunBatch call.
// The runner is the only dedup: identical requests, in one batch or in
// concurrent ones, meet in its singleflight cache as hits or as joins
// of an execution in flight (the inflight_joins counter).

// The batch shape: a lone request waits batchWindow for company, and a
// batch holds at most maxBatch requests.
const (
	batchWindow = 2 * time.Millisecond
	maxBatch    = 64
)

// recommendWork is one enqueued request.
type recommendWork struct {
	wf         workflow.Spec
	includeAll bool
	resp       chan recommendResult // buffered: delivery never blocks on an abandoned request
}

// appendJobs appends the request's share of the batch: the
// recommended configuration's run, or all four in Table I order.
func (w *recommendWork) appendJobs(jobs []core.Job, rec core.Recommendation) []core.Job {
	if !w.includeAll {
		return append(jobs, core.ConfigJob(w.wf, rec.Config))
	}
	for _, cfg := range core.Configs {
		jobs = append(jobs, core.ConfigJob(w.wf, cfg))
	}
	return jobs
}

// recommendResult is what the batcher hands back: the recommendation,
// the measured result under the recommended configuration, and (when
// the request asked) all four configuration results in Table I order.
type recommendResult struct {
	rec    core.Recommendation
	chosen core.Result
	all    []core.Result
	err    error
}

// fill takes the results of the jobs appendJobs built.
func (res *recommendResult) fill(results []core.Result, includeAll bool) {
	if !includeAll {
		res.chosen = results[0]
		res.chosen.Config = res.rec.Config
		return
	}
	res.all = results
	for i, cfg := range core.Configs {
		res.all[i].Config = cfg
		if cfg == res.rec.Config {
			res.chosen = res.all[i]
		}
	}
}

type batcher struct {
	rt  *core.Runner
	met *registry
	ch  chan *recommendWork
	wg  sync.WaitGroup
}

// newBatcher starts min(4, GOMAXPROCS) collectors: more than one lets
// identical requests land in concurrent batches, which is what
// exercises the runner's in-flight coalescing under load.
func newBatcher(rt *core.Runner, met *registry) *batcher {
	collectors := min(4, runtime.GOMAXPROCS(0))
	b := &batcher{
		rt:  rt,
		met: met,
		ch:  make(chan *recommendWork, maxBatch*collectors),
	}
	for i := 0; i < collectors; i++ {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.collect()
		}()
	}
	return b
}

// close stops the collectors after draining queued work. Callers must
// guarantee no handler is still enqueuing (drain the HTTP server
// first); a send on a closed channel would panic.
func (b *batcher) close() {
	close(b.ch)
	b.wg.Wait()
}

// collect is one collector goroutine: take the first work item,
// gather a batch, execute, repeat.
func (b *batcher) collect() {
	for w := range b.ch {
		batch := b.gather(w)
		b.met.batches.Add(1)
		b.met.batched.Add(uint64(len(batch)))
		b.execute(batch)
	}
}

// gather assembles one batch around the first work item. Everything
// already queued joins immediately; only a lone request waits out the
// batch window for company. The batch closes when it fills, when the
// queue empties with company on board, or when the lone wait expires —
// a warm request costs microseconds to serve, so holding a non-trivial
// batch open for the window's sake would cap throughput at
// batch-size/window. A burst that outruns one batch still merges in
// the runner: the next batch's duplicates join the first's executions
// in flight.
func (b *batcher) gather(first *recommendWork) []*recommendWork {
	batch := b.drain([]*recommendWork{first})
	if len(batch) > 1 {
		return batch
	}
	timer := time.NewTimer(batchWindow)
	defer timer.Stop()
	select {
	case more, ok := <-b.ch:
		if ok {
			batch = b.drain(append(batch, more))
		}
	case <-timer.C:
	}
	return batch
}

// drain moves whatever is queued right now into the batch, without
// waiting, up to the batch cap.
func (b *batcher) drain(batch []*recommendWork) []*recommendWork {
	for len(batch) < maxBatch {
		select {
		case more, ok := <-b.ch:
			if !ok {
				return batch
			}
			batch = append(batch, more)
		default:
			return batch
		}
	}
	return batch
}

// execute runs one batch: a recommendation per request (classification
// profiles the components standalone, memoized), one RunBatch over
// every request's jobs, then delivery.
func (b *batcher) execute(batch []*recommendWork) {
	out := make([]recommendResult, len(batch))
	ends := make([]int, len(batch)) // request i's jobs end at ends[i]
	var jobs []core.Job
	for i, w := range batch {
		out[i].rec, out[i].err = b.rt.RecommendWorkflow(w.wf)
		if out[i].err == nil {
			jobs = w.appendJobs(jobs, out[i].rec)
		}
		ends[i] = len(jobs)
	}
	results, err := b.rt.RunBatch(jobs)
	start := 0
	for i, w := range batch {
		res := &out[i]
		switch {
		case res.err != nil:
		case err == nil:
			res.fill(results[start:ends[i]], w.includeAll)
		default:
			// A failed batch reports only its first error; re-run this
			// request's jobs (cached if they succeeded) so each request
			// gets its own verdict and healthy requests still answer.
			var rerun []core.Result
			if rerun, res.err = b.rt.RunBatch(jobs[start:ends[i]]); res.err == nil {
				res.fill(rerun, w.includeAll)
			}
		}
		start = ends[i]
		w.resp <- *res
	}
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if err := decodeJSON(r, &req); err != nil {
		s.replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.DAG) > 0 {
		s.handleRecommendDAG(w, req)
		return
	}
	wf, err := req.resolve()
	if err != nil {
		s.replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	work := &recommendWork{
		wf:         wf,
		includeAll: req.IncludeRuntimes,
		resp:       make(chan recommendResult, 1),
	}
	ctx := r.Context()
	select {
	case s.batch.ch <- work:
	case <-ctx.Done():
		s.replyError(w, http.StatusGatewayTimeout, "deadline exceeded before the request was batched")
		return
	}
	var res recommendResult
	select {
	case res = <-work.resp:
	case <-ctx.Done():
		// The batch keeps computing and warms the cache; an immediate
		// retry is a cache hit.
		s.replyError(w, http.StatusGatewayTimeout, "deadline exceeded while the decision was computing; retry to hit the warmed cache")
		return
	}
	if res.err != nil {
		s.replyError(w, http.StatusInternalServerError, "%v", res.err)
		return
	}
	resp := recommendResponse{
		Workflow:       wf.Name,
		Ranks:          wf.Ranks,
		Config:         res.rec.Config.Label(),
		Rule:           res.rec.Row.ID,
		Illustrative:   res.rec.Row.Illustrative,
		Features:       featuresWire(res.rec.Features),
		RuntimeSeconds: res.chosen.TotalSeconds,
	}
	if wf.Tier.Enabled() {
		resp.Tier = wf.Tier.Label()
	}
	if req.IncludeRuntimes {
		for i, cfg := range core.Configs {
			resp.Runtimes = append(resp.Runtimes, configRuntime{
				Config:         cfg.Label(),
				RuntimeSeconds: res.all[i].TotalSeconds,
			})
		}
	}
	s.reply(w, http.StatusOK, resp)
}

// handleRecommendDAG is the inline DAG decision path: a per-stage
// tuned configuration (core.TuneDAG over the shared engine) instead of
// a Table II cell. DAG tuning bypasses the micro-batcher — its many
// per-edge kernel runs already coalesce in the runner's singleflight
// cache, which is where concurrent identical DAG requests meet.
func (s *Server) handleRecommendDAG(w http.ResponseWriter, req recommendRequest) {
	if req.Name != "" || len(req.Workflow) > 0 {
		s.replyError(w, http.StatusBadRequest, "schedd: request sets dag next to name or workflow; pick one")
		return
	}
	if len(req.Tier) > 0 {
		s.replyError(w, http.StatusBadRequest, "schedd: tier applies to plain workflows, not dag requests; declare per-stage tiers in the dag spec")
		return
	}
	d, err := workflow.ReadDAGSpec(bytes.NewReader(req.DAG))
	if err != nil {
		s.replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tuned, err := core.TuneDAG(s.rt, d, core.DAGOptions{})
	if err != nil {
		s.replyError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := dagRecommendResponse{
		Workflow:               d.Name,
		Stages:                 []dagStageConfigJSON{},
		MakespanSeconds:        tuned.Prediction.MakespanSeconds,
		CostCoreSeconds:        tuned.Prediction.CostCoreSeconds,
		UniformConfig:          core.Config{Mode: tuned.Uniform.Mode, Placement: tuned.Uniform.Place}.Label(),
		UniformMakespanSeconds: tuned.UniformPrediction.MakespanSeconds,
		UniformCostCoreSeconds: tuned.UniformPrediction.CostCoreSeconds,
		Evaluations:            tuned.Evaluations,
	}
	for i, st := range d.Stages {
		sc := tuned.Assignment.Stages[i]
		ranks := st.Ranks
		if sc.Ranks > 0 {
			ranks = sc.Ranks
		}
		resp.Stages = append(resp.Stages, dagStageConfigJSON{
			Stage:  st.Name,
			Ranks:  ranks,
			Config: core.Config{Mode: sc.Mode, Placement: sc.Place}.Label(),
			Stack:  sc.Stack,
		})
	}
	s.reply(w, http.StatusOK, resp)
}
