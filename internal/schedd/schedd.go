// Package schedd implements the scheduler-as-a-service daemon behind
// cmd/wfschedd: an HTTP/JSON server that amortizes the paper's
// scheduling decisions across many concurrent clients.
//
// Two decision families are served. Stateless recommendation
// (POST /v1/recommend) answers "which Table I configuration should
// this workflow run under?" — the profile/classify/Table-II pipeline,
// backed by the shared memoized core.Runner so concurrent identical
// requests coalesce into one simulation and repeats are cache hits.
// Stateful placement (POST /v1/nodes, POST /v1/jobs, GET /v1/schedule,
// POST /v1/advance, GET /v1/state) maintains a cluster.State store and
// drives the internal/cluster policies online, reporting each binding
// with its filter-phase candidate set in the spirit of the Kubernetes
// scheduler-extender's filter/prioritize split.
//
// The serving plumbing is the point of the package:
//
//   - Admission: a bounded gate sheds load with 429 + Retry-After once
//     the configured number of decision requests are in flight, so a
//     burst degrades into fast rejections instead of collapse.
//   - Micro-batching: recommend requests are collected for a couple of
//     milliseconds and executed as one Runner.RunBatch call. The
//     runner's singleflight cache is the only dedup: identical
//     requests, in one batch or in concurrent ones, meet there as
//     cache hits or in-flight joins.
//   - Deadlines: every decision request carries a timeout; a request
//     that exceeds it gets 504 while the underlying computation
//     completes and warms the cache for the retry.
//   - Observability: GET /metrics (request counts, latency histograms,
//     cache hit rate, admission and batching counters), GET /healthz,
//     and structured request logs with per-request IDs.
//
// Responses contain no timestamps or request identifiers, so identical
// requests produce byte-identical bodies — the determinism contract
// the rest of the repository holds, extended to the wire.
package schedd

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
)

// Config parameterizes a Server. The zero value of every optional
// field selects a production default.
type Config struct {
	// Runner is the shared decision engine and cache. Required.
	Runner *core.Runner
	// Policy drives the placement store; nil selects PMEMAware.
	Policy cluster.Policy
	// CoresPerSocket sets the store's node shape; 0 = the testbed's.
	CoresPerSocket int
	// MaxInflight caps concurrently admitted decision requests; beyond
	// it the server sheds with 429. 0 selects 8x the runner's worker
	// pool (decision requests spend most of their time waiting on the
	// pool, so some queueing depth keeps the workers fed).
	MaxInflight int
	// RequestTimeout is the per-request decision deadline; 0 selects
	// 30s.
	RequestTimeout time.Duration
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
}

func (c *Config) fill() error {
	if c.Runner == nil {
		return fmt.Errorf("schedd: Config.Runner is required")
	}
	if c.Policy == nil {
		c.Policy = cluster.PMEMAware()
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8 * c.Runner.Workers()
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return nil
}

// Server is the daemon: an http.Handler plus the shared decision
// engine, the placement store, the admission gate, the batch
// collectors and the metrics registry.
type Server struct {
	cfg   Config
	rt    *core.Runner
	gate  *gate
	met   *registry
	batch *batcher
	mux   *http.ServeMux
	log   *slog.Logger

	storeMu sync.Mutex
	store   *cluster.State
	// nodeNames and jobKeys back the duplicate-rejection contract of
	// named node registration and keyed job submission: lookup tables
	// only (never iterated), guarded by storeMu with the store itself.
	nodeNames map[string]int
	jobKeys   map[string]int
}

// New builds a server. Call Close when done to stop the batch
// collectors (after draining the HTTP server, so no handler is still
// submitting work).
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	store, err := cluster.NewState(cluster.Options{
		Policy:         cfg.Policy,
		Estimator:      cluster.NewEstimator(cfg.Runner),
		CoresPerSocket: cfg.CoresPerSocket,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		rt:        cfg.Runner,
		gate:      newGate(cfg.MaxInflight),
		met:       newRegistry(),
		store:     store,
		nodeNames: make(map[string]int),
		jobKeys:   make(map[string]int),
		log:       cfg.Logger,
	}
	s.batch = newBatcher(cfg.Runner, s.met)
	s.routes()
	return s, nil
}

// Close stops the batch collectors. It must only be called once no
// handler can still be running (http.Server.Shutdown has returned).
func (s *Server) Close() { s.batch.close() }

// The HTTP server's connection timeouts: a client that trickles
// header bytes, or idles on a keep-alive connection, cannot hold a
// connection and its goroutine forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// HTTPServer returns an http.Server for Handler with the daemon's
// connection timeouts. Every front end serves the daemon through it.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Handler returns the daemon's HTTP handler with the middleware chain
// applied: request ID + structured log + per-endpoint metrics.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Stats returns the shared run engine's cache counters (tests and the
// load generator read coalescing evidence through it).
func (s *Server) Stats() core.RunnerStats { return s.rt.Stats() }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/recommend", s.admitted(s.handleRecommend))
	s.mux.HandleFunc("POST /v1/nodes", s.admitted(s.handleAddNodes))
	s.mux.HandleFunc("POST /v1/jobs", s.admitted(s.handleSubmitJob))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/schedule", s.admitted(s.handleSchedule))
	s.mux.HandleFunc("POST /v1/advance", s.admitted(s.handleAdvance))
	s.mux.HandleFunc("GET /v1/state", s.handleState)
}

// admitted wraps a decision handler with the admission gate and the
// per-request deadline. Read-only introspection endpoints (healthz,
// metrics, state, job status) bypass the gate: they must stay
// responsive exactly when the gate is shedding.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.gate.tryAcquire() {
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server saturated: all decision slots in flight")
			return
		}
		defer s.gate.release()
		ctx, cancel := contextWithTimeout(r, s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write([]byte("{\"status\":\"ok\"}\n")); err != nil {
		s.log.Debug("healthz write failed", "err", err)
	}
}
