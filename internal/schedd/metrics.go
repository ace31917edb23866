package schedd

import (
	"net/http"
	"sync"
	"sync/atomic"
)

// The daemon's metrics: per-endpoint request counts and latency
// histograms, admission-gate counters, batch shape, and the shared
// run-engine cache counters. GET /metrics serializes a snapshot as
// JSON — counts are monotonic since process start, latencies in
// milliseconds.

// latencyBuckets are the histogram upper bounds in seconds. The range
// spans a cache hit (tens of microseconds) to a cold simulation burst;
// observations beyond the last bound land in an overflow bucket.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. A single mutex per
// endpoint is plenty: the critical section is a dozen arithmetic ops.
type histogram struct {
	mu      sync.Mutex
	buckets [len(latencyBuckets) + 1]uint64
	count   uint64
	sum     float64
	max     float64
}

func (h *histogram) observe(seconds float64) {
	i := 0
	for i < len(latencyBuckets) && seconds > latencyBuckets[i] {
		i++
	}
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += seconds
	if seconds > h.max {
		h.max = seconds
	}
	h.mu.Unlock()
}

// quantile estimates the q-quantile from the bucket counts, reading
// each observation as its bucket's upper bound (the overflow bucket
// reads as the observed max). Upper bounds make the estimate
// conservative: a reported p99 is never below the true one by more
// than a bucket width.
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return h.max
		}
	}
	return h.max
}

// latencyJSON is one histogram's summary on the wire.
type latencyJSON struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func (h *histogram) summary() latencyJSON {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := latencyJSON{Count: h.count, MaxMs: h.max * 1e3}
	if h.count > 0 {
		out.MeanMs = h.sum / float64(h.count) * 1e3
	}
	out.P50Ms = h.quantile(0.50) * 1e3
	out.P90Ms = h.quantile(0.90) * 1e3
	out.P99Ms = h.quantile(0.99) * 1e3
	return out
}

// endpointNames fixes the registry's vocabulary and its output order.
var endpointNames = []string{
	"recommend", "nodes", "jobs", "job_status", "schedule", "advance",
	"state", "healthz", "metrics", "other",
}

type endpointMetrics struct {
	name     string
	requests atomic.Uint64
	errors   atomic.Uint64 // responses with status >= 400
	lat      histogram
}

// registry is the daemon's metrics store.
type registry struct {
	eps   []*endpointMetrics
	byKey map[string]*endpointMetrics

	shed    atomic.Uint64 // admission rejections (429)
	batches atomic.Uint64 // recommend micro-batches executed
	batched atomic.Uint64 // recommend requests that rode a batch
}

func newRegistry() *registry {
	m := &registry{byKey: make(map[string]*endpointMetrics, len(endpointNames))}
	for _, name := range endpointNames {
		ep := &endpointMetrics{name: name}
		m.eps = append(m.eps, ep)
		m.byKey[name] = ep
	}
	return m
}

func (m *registry) observe(key string, status int, seconds float64) {
	ep, ok := m.byKey[key]
	if !ok {
		ep = m.byKey["other"]
	}
	ep.requests.Add(1)
	if status >= 400 {
		ep.errors.Add(1)
	}
	ep.lat.observe(seconds)
}

// The /metrics wire shape.
type endpointJSON struct {
	Endpoint string      `json:"endpoint"`
	Requests uint64      `json:"requests"`
	Errors   uint64      `json:"errors"`
	Latency  latencyJSON `json:"latency"`
}

type admissionJSON struct {
	MaxInflight int    `json:"max_inflight"`
	Shed        uint64 `json:"shed"`
}

type batchJSON struct {
	Batches  uint64  `json:"batches"`
	Requests uint64  `json:"requests"`
	MeanSize float64 `json:"mean_size"`
}

type cacheJSON struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	InflightJoins uint64  `json:"inflight_joins"`
	Entries       uint64  `json:"entries"`
	HitRate       float64 `json:"hit_rate"`
}

type metricsJSON struct {
	Requests  []endpointJSON `json:"requests"`
	Admission admissionJSON  `json:"admission"`
	Batch     batchJSON      `json:"batch"`
	Cache     cacheJSON      `json:"cache"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	out := metricsJSON{
		Admission: admissionJSON{
			MaxInflight: s.gate.capacity(),
			Shed:        s.met.shed.Load(),
		},
	}
	for _, ep := range s.met.eps {
		// Skip silent endpoints so a fresh daemon's /metrics stays small;
		// the vocabulary is fixed, so present entries keep a stable order.
		reqs := ep.requests.Load()
		if reqs == 0 {
			continue
		}
		out.Requests = append(out.Requests, endpointJSON{
			Endpoint: ep.name,
			Requests: reqs,
			Errors:   ep.errors.Load(),
			Latency:  ep.lat.summary(),
		})
	}
	if out.Requests == nil {
		out.Requests = []endpointJSON{}
	}
	batches, batched := s.met.batches.Load(), s.met.batched.Load()
	out.Batch = batchJSON{Batches: batches, Requests: batched}
	if batches > 0 {
		out.Batch.MeanSize = float64(batched) / float64(batches)
	}
	st := s.rt.Stats()
	out.Cache = cacheJSON{
		Hits:          st.Hits,
		Misses:        st.Misses,
		InflightJoins: st.Inflight,
		Entries:       st.Entries,
		HitRate:       st.HitRate(),
	}
	s.reply(w, http.StatusOK, out)
}
