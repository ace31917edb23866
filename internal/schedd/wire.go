package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// The wire types of the daemon's JSON API. Every response is a pure
// function of the request and (for placement) the store's state: no
// timestamps, no request IDs, no map-ordered collections — identical
// requests against identical state produce byte-identical bodies.
//
// These types deliberately live here rather than in internal/cluster:
// the cluster package's JSON surface is contract-locked by pmemlint's
// jsoncontract analyzer, while the daemon's wire format is versioned
// by its URL prefix (/v1/) instead.

// maxBodyBytes bounds request bodies; a workflow spec is a few hundred
// bytes, so a megabyte is generous without letting a client balloon
// the daemon's heap.
const maxBodyBytes = 1 << 20

// workflowRef names a workflow either by catalog name + ranks or by an
// inline JSON spec (the same schema wfrun -spec reads). Exactly one of
// Name and Workflow must be set.
type workflowRef struct {
	// Name is a catalog workload: micro-64mb, micro-2k, gtc+readonly,
	// gtc+matrixmult, miniamr+readonly or miniamr+matrixmult.
	Name string `json:"name,omitempty"`
	// Ranks per component for catalog workloads; 0 selects 16 (the
	// CLIs' default). Ignored for inline specs, which carry their own.
	Ranks int `json:"ranks,omitempty"`
	// Workflow is an inline spec in the workflow JSON schema.
	Workflow json.RawMessage `json:"workflow,omitempty"`
	// DAG is an inline general-pipeline spec in the DAG JSON schema
	// (workflow.ReadDAGSpec). Only /v1/recommend accepts it — the
	// response is then a per-stage tuned configuration instead of a
	// Table II cell.
	DAG json.RawMessage `json:"dag,omitempty"`
	// Tier is an optional memory-tier spec in the tier JSON schema
	// ({"policy": "dram-first-spill", ...}), applied to the resolved
	// workflow. Inline workflow specs may instead declare their own
	// "tier" member; setting both is rejected rather than silently
	// preferring one.
	Tier json.RawMessage `json:"tier,omitempty"`
}

// resolve turns the reference into a validated spec.
func (ref workflowRef) resolve() (workflow.Spec, error) {
	if len(ref.DAG) > 0 {
		return workflow.Spec{}, fmt.Errorf("schedd: dag specs are supported on /v1/recommend only")
	}
	if len(ref.Workflow) > 0 {
		if ref.Name != "" {
			return workflow.Spec{}, fmt.Errorf("schedd: request sets both name and workflow; pick one")
		}
		wf, err := workflow.ReadSpec(bytes.NewReader(ref.Workflow))
		if err != nil {
			return workflow.Spec{}, err
		}
		return ref.applyTier(wf)
	}
	if ref.Name == "" {
		return workflow.Spec{}, fmt.Errorf("schedd: request needs a workload name or an inline workflow spec")
	}
	ranks := ref.Ranks
	if ranks == 0 {
		ranks = 16
	}
	if ranks < 0 {
		return workflow.Spec{}, fmt.Errorf("schedd: ranks must be positive, got %d", ranks)
	}
	wf, ok := workloads.ByName(ref.Name, ranks)
	if !ok {
		return workflow.Spec{}, fmt.Errorf("schedd: unknown workload %q (want one of %s)", ref.Name, strings.Join(workloads.Names(), ", "))
	}
	return ref.applyTier(wf)
}

// applyTier overlays the request's tier spec, if any, onto the
// resolved workflow. A request tier next to an inline workflow that
// already declares one is a conflict: the two could disagree, and a
// silent preference either way would make the winning tier depend on
// which document the operator happened to edit.
func (ref workflowRef) applyTier(wf workflow.Spec) (workflow.Spec, error) {
	if len(ref.Tier) == 0 {
		return wf, nil
	}
	if wf.Tier.Enabled() {
		return workflow.Spec{}, fmt.Errorf("schedd: request sets tier next to a workflow spec that declares its own; pick one")
	}
	t, err := workflow.ReadTierSpec(bytes.NewReader(ref.Tier))
	if err != nil {
		return workflow.Spec{}, err
	}
	wf.Tier = t
	return wf, nil
}

// recommendRequest asks for a Table II configuration decision.
type recommendRequest struct {
	workflowRef
	// IncludeRuntimes additionally reports the workflow's runtime under
	// all four Table I configurations (the oracle's measurement set).
	IncludeRuntimes bool `json:"include_runtimes,omitempty"`
}

// featuresJSON is the classified feature vector, Table II's vocabulary.
type featuresJSON struct {
	SimCompute  string `json:"sim_compute"`
	SimWrite    string `json:"sim_write"`
	AnaCompute  string `json:"ana_compute"`
	AnaRead     string `json:"ana_read"`
	ObjectSize  string `json:"object_size"`
	Concurrency string `json:"concurrency"`
}

func featuresWire(f core.Features) featuresJSON {
	return featuresJSON{
		SimCompute:  f.SimCompute.String(),
		SimWrite:    f.SimWrite.String(),
		AnaCompute:  f.AnaCompute.String(),
		AnaRead:     f.AnaRead.String(),
		ObjectSize:  f.ObjectSize.String(),
		Concurrency: f.Conc.String(),
	}
}

// configRuntime is one (configuration, runtime) measurement.
type configRuntime struct {
	Config         string  `json:"config"`
	RuntimeSeconds float64 `json:"runtime_seconds"`
}

// recommendResponse is the decision: the recommended configuration,
// the Table II rule that produced it, the classified features, and the
// measured runtime under the recommendation.
type recommendResponse struct {
	Workflow     string `json:"workflow"`
	Ranks        int    `json:"ranks"`
	Config       string `json:"config"`
	Rule         int    `json:"rule"`
	Illustrative string `json:"illustrative,omitempty"`
	// Tier echoes the memory-tier policy the decision ran under, only
	// when one was requested — pre-tier clients see an unchanged body.
	Tier           string       `json:"tier,omitempty"`
	Features       featuresJSON `json:"features"`
	RuntimeSeconds float64      `json:"runtime_seconds"`
	// Runtimes lists all four configurations in Table I order when the
	// request asked for them.
	Runtimes []configRuntime `json:"runtimes,omitempty"`
}

// addNodesRequest registers homogeneous nodes with the placement
// store: either count anonymous nodes, or one node per unique name.
// Named registration is idempotence armor for provisioning scripts —
// re-posting a name is a deterministic 400 naming the existing node,
// never a silent second registration.
type addNodesRequest struct {
	Count int      `json:"count,omitempty"`
	Names []string `json:"names,omitempty"`
}

type addNodesResponse struct {
	Nodes []int `json:"nodes"`
	Total int   `json:"total"`
}

// submitJobRequest submits a job to the placement store.
type submitJobRequest struct {
	workflowRef
	// ArrivalSeconds on the store's virtual clock; values in the past
	// clamp to now, values in the future park until /v1/advance.
	ArrivalSeconds float64 `json:"arrival_seconds,omitempty"`
	// Key is an optional client-chosen idempotency key: resubmitting a
	// key is a deterministic 400 naming the job that holds it, so a
	// retried request can never double-enqueue work.
	Key string `json:"key,omitempty"`
}

// advanceRequest moves the store's virtual clock forward.
type advanceRequest struct {
	ToSeconds float64 `json:"to_seconds"`
}

// dagStageConfigJSON is one stage's tuned configuration in a DAG
// recommendation.
type dagStageConfigJSON struct {
	Stage  string `json:"stage"`
	Ranks  int    `json:"ranks"`
	Config string `json:"config"`
	Stack  string `json:"stack,omitempty"`
}

// dagRecommendResponse is the per-stage decision for an inline DAG
// spec: the tuned assignment with its predicted makespan and cost,
// next to the best uniform configuration it beat (or tied).
type dagRecommendResponse struct {
	Workflow               string               `json:"workflow"`
	Stages                 []dagStageConfigJSON `json:"stages"`
	MakespanSeconds        float64              `json:"makespan_seconds"`
	CostCoreSeconds        float64              `json:"cost_core_seconds"`
	UniformConfig          string               `json:"uniform_config"`
	UniformMakespanSeconds float64              `json:"uniform_makespan_seconds"`
	UniformCostCoreSeconds float64              `json:"uniform_cost_core_seconds"`
	Evaluations            int                  `json:"evaluations"`
}

// jobStatusJSON mirrors cluster.JobStatus.
type jobStatusJSON struct {
	ID              int     `json:"id"`
	Name            string  `json:"name"`
	Ranks           int     `json:"ranks"`
	Phase           string  `json:"phase"`
	ArrivalSeconds  float64 `json:"arrival_seconds"`
	Node            int     `json:"node"`
	Config          string  `json:"config,omitempty"`
	StartSeconds    float64 `json:"start_seconds"`
	EndSeconds      float64 `json:"end_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	WaitSeconds     float64 `json:"wait_seconds"`
}

func jobStatusWire(js cluster.JobStatus) jobStatusJSON {
	return jobStatusJSON{
		ID:              js.ID,
		Name:            js.Name,
		Ranks:           js.Ranks,
		Phase:           string(js.Phase),
		ArrivalSeconds:  js.ArrivalSeconds,
		Node:            js.Node,
		Config:          js.Config,
		StartSeconds:    js.StartSeconds,
		EndSeconds:      js.EndSeconds,
		DurationSeconds: js.DurationSeconds,
		WaitSeconds:     js.WaitSeconds,
	}
}

// placedJSON mirrors cluster.Placed: one binding with its filter-phase
// candidate set.
type placedJSON struct {
	JobID           int     `json:"job_id"`
	Node            int     `json:"node"`
	Config          string  `json:"config"`
	StartSeconds    float64 `json:"start_seconds"`
	EndSeconds      float64 `json:"end_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	Candidates      []int   `json:"candidates"`
}

// stepJSON mirrors cluster.Step.
type stepJSON struct {
	NowSeconds float64         `json:"now_seconds"`
	Placed     []placedJSON    `json:"placed"`
	Completed  []jobStatusJSON `json:"completed"`
}

func stepWire(now float64, st cluster.Step) stepJSON {
	out := stepJSON{NowSeconds: now, Placed: []placedJSON{}, Completed: []jobStatusJSON{}}
	for _, p := range st.Placed {
		cands := p.Candidates
		if cands == nil {
			cands = []int{}
		}
		out.Placed = append(out.Placed, placedJSON{
			JobID:           p.JobID,
			Node:            p.Node,
			Config:          p.Config.Label(),
			StartSeconds:    p.StartSeconds,
			EndSeconds:      p.EndSeconds,
			DurationSeconds: p.DurationSeconds,
			Candidates:      cands,
		})
	}
	for _, c := range st.Completed {
		out.Completed = append(out.Completed, jobStatusWire(c))
	}
	return out
}

// nodeJSON and snapshotJSON mirror cluster.Snapshot.
type nodeJobJSON struct {
	JobID      int     `json:"job_id"`
	Ranks      int     `json:"ranks"`
	EndSeconds float64 `json:"end_seconds"`
}

type nodeJSON struct {
	ID      int           `json:"id"`
	Cores   int           `json:"cores"`
	Free    int           `json:"free"`
	Running []nodeJobJSON `json:"running"`
}

type snapshotJSON struct {
	NowSeconds     float64    `json:"now_seconds"`
	Policy         string     `json:"policy"`
	CoresPerSocket int        `json:"cores_per_socket"`
	Nodes          []nodeJSON `json:"nodes"`
	Queue          []int      `json:"queue"`
	Future         []int      `json:"future"`
	Submitted      int        `json:"submitted"`
	Running        int        `json:"running"`
	Completed      int        `json:"completed"`
}

func snapshotWire(snap cluster.Snapshot) snapshotJSON {
	out := snapshotJSON{
		NowSeconds:     snap.NowSeconds,
		Policy:         snap.Policy,
		CoresPerSocket: snap.CoresPerSocket,
		Nodes:          []nodeJSON{},
		Queue:          snap.Queue,
		Future:         snap.Future,
		Submitted:      snap.Submitted,
		Running:        snap.Running,
		Completed:      snap.Completed,
	}
	if out.Queue == nil {
		out.Queue = []int{}
	}
	if out.Future == nil {
		out.Future = []int{}
	}
	for _, n := range snap.Nodes {
		nj := nodeJSON{ID: n.ID, Cores: n.Cores, Free: n.Free, Running: []nodeJobJSON{}}
		for _, r := range n.Running {
			nj.Running = append(nj.Running, nodeJobJSON{JobID: r.JobID, Ranks: r.Ranks, EndSeconds: r.EndSeconds})
		}
		out.Nodes = append(out.Nodes, nj)
	}
	return out
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

// decodeJSON strictly decodes a bounded request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// writeJSON marshals v, then writes status and the body in one shot —
// marshal errors surface as 500 instead of a half-written 200.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return err
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err = w.Write(data)
	return err
}

// reply writes a JSON response, logging (not masking) a failed write —
// by then the status line is gone, so the client sees the truncation.
func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	if err := writeJSON(w, status, v); err != nil {
		s.log.Debug("response write failed", "err", err)
	}
}

// replyError writes the uniform error body.
func (s *Server) replyError(w http.ResponseWriter, status int, format string, args ...any) {
	s.reply(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// writeError is replyError for call sites without a server (the
// admission wrapper builds it before the handler chain).
func writeError(w http.ResponseWriter, status int, msg string) {
	// The body is a marshal of a plain struct — it cannot fail — and a
	// failed socket write at rejection time has no one left to tell.
	_ = writeJSON(w, status, errorJSON{Error: msg})
}

// contextWithTimeout attaches the per-request decision deadline.
func contextWithTimeout(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), d)
}

// discardHandler is a no-op slog.Handler (the default when no logger
// is configured; slog.DiscardHandler arrived after this module's Go
// version).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// reqID hands out per-process request IDs: monotonic, not random, so
// the daemon stays free of nondeterminism sources. IDs appear in logs
// and the X-Request-Id header only, never in response bodies.
var reqID atomic.Uint64

// statusRecorder captures the response status for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument is the outer middleware: request ID, latency measurement,
// per-endpoint metrics, structured log line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%08x", reqID.Add(1))
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		s.met.observe(endpointKey(r), rec.status, elapsed.Seconds())
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"elapsed", elapsed,
		)
	})
}

// endpointKey buckets a request for the metrics registry. The keys are
// a fixed vocabulary so /metrics output has a stable shape.
func endpointKey(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/healthz":
		return "healthz"
	case p == "/metrics":
		return "metrics"
	case p == "/v1/recommend":
		return "recommend"
	case p == "/v1/nodes":
		return "nodes"
	case p == "/v1/jobs":
		return "jobs"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "job_status"
	case p == "/v1/schedule":
		return "schedule"
	case p == "/v1/advance":
		return "advance"
	case p == "/v1/state":
		return "state"
	}
	return "other"
}
