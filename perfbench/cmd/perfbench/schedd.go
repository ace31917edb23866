package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/schedd"
)

// The schedd-mixed request mix, as one cycle of 30 operations that
// each client shuffles with its own seeded generator: 3 cold inline
// recommends (one in ten), 10 placement-store requests (one in three:
// 4 job submissions and 2 clock advances that write, 2 schedule
// queries and 2 job-status reads) and 17 warm catalog recommends.
type opKind int

const (
	opWarm opKind = iota
	opCold
	opSubmit
	opAdvance
	opSchedule
	opStatus
)

var opCycle = func() []opKind {
	var c []opKind
	for kind, n := range [...]int{opWarm: 17, opCold: 3, opSubmit: 4, opAdvance: 2, opSchedule: 2, opStatus: 2} {
		for i := 0; i < n; i++ {
			c = append(c, opKind(kind))
		}
	}
	return c
}()

// endpoint names match the daemon's /metrics vocabulary.
var opEndpoint = [...]string{
	opWarm: "recommend", opCold: "recommend", opSubmit: "jobs",
	opAdvance: "advance", opSchedule: "schedule", opStatus: "job_status",
}

// scheddEndpoints are the endpoints the mix drives, in report order.
var scheddEndpoints = []string{"recommend", "jobs", "job_status", "schedule", "advance"}

// scheddNodes is the fleet the daemon's store manages.
const scheddNodes = 16

// advanceStep is how far each advance moves the store's virtual clock:
// long enough that submitted jobs finish and the queue stays short.
const advanceStep = 30.0

// coldShapes are the inline specs' shapes. Cold requests cycle through
// them in order, so every seed draws the same costs; the seed picks the
// compute times, which makes each spec distinct and so a cache miss.
var coldShapes = []struct {
	ranks, iterations, count int
	bytes                    int64
}{
	{4, 3, 2, 64 << 20},
	{8, 2, 64, 1 << 20},
	{6, 4, 8, 16 << 20},
}

// scheddMixed drives an in-process daemon on loopback with closed-loop
// clients, each sending its next request when the reply arrives.
type scheddMixed struct {
	o      options
	t      *tally
	srv    *schedd.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client

	warm []string          // warmed catalog recommend bodies
	ref  map[string][]byte // each warm body's first reply; read-only after set-up

	clockMu sync.Mutex
	clock   float64

	clients []*scheddClient

	walls, nsPer []float64
	requests     int
	total        time.Duration
	rec, place   []float64 // ms, over the whole run

	// From the traced round.
	client50, client99 map[string]float64
	server             metricsDoc
}

// scheddClient is one closed-loop client's state.
type scheddClient struct {
	id    int
	rng   *rand.Rand
	cycle []opKind
	pos   int
	cold  int
	job   int // the last job this client submitted
	rec   []float64
	place []float64
}

func setupSchedd(o options, t *tally) (bench, error) {
	rt := core.NewRunner(core.DefaultEnv(), workers)
	srv, err := schedd.New(schedd.Config{Runner: rt})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &scheddMixed{
		o:      o,
		t:      t,
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		ref:    map[string][]byte{},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	if _, err := s.call("POST", "/v1/nodes", fmt.Sprintf(`{"count":%d}`, scheddNodes)); err != nil {
		s.close()
		return nil, err
	}
	for _, name := range []string{"micro-64mb", "micro-2k", "gtc+readonly", "gtc+matrixmult", "miniamr+readonly", "miniamr+matrixmult"} {
		for _, ranks := range []int{8, 16, 24} {
			body := fmt.Sprintf(`{"name":%q,"ranks":%d}`, name, ranks)
			reply, err := s.call("POST", "/v1/recommend", body)
			if err != nil {
				s.close()
				return nil, err
			}
			s.warm = append(s.warm, body)
			s.ref[body] = reply
		}
	}
	// Job 0 exists before any client asks for a job's status.
	if _, err := s.call("POST", "/v1/jobs", s.warm[0]); err != nil {
		s.close()
		return nil, err
	}
	for c := 0; c < clients; c++ {
		s.clients = append(s.clients, &scheddClient{
			id:    c,
			rng:   rand.New(rand.NewSource(o.seed*1000 + int64(c))),
			cycle: append([]opKind(nil), opCycle...),
			pos:   len(opCycle),
		})
	}
	return s, nil
}

// call sends one request and returns the body of a 200 reply; any
// other status is an error.
func (s *scheddMixed) call(method, path, body string) ([]byte, error) {
	reply, _, err := s.do(method, path, body)
	return reply, err
}

// do sends one request and returns the reply body and request ID.
func (s *scheddMixed) do(method, path, body string) ([]byte, string, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, "", err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	id := resp.Header.Get("X-Request-Id")
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, id, err
}

func (s *scheddMixed) round(tr *tracer) (time.Duration, error) {
	n := s.o.sizes.scheddRequests
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *scheddClient) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s.step(c, tr)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	reqs := n * len(s.clients)
	s.walls = append(s.walls, wall.Seconds())
	s.nsPer = append(s.nsPer, float64(wall.Nanoseconds())/float64(reqs))
	s.requests += reqs
	s.total += wall
	for _, c := range s.clients {
		s.rec = append(s.rec, c.rec...)
		s.place = append(s.place, c.place...)
		c.rec, c.place = c.rec[:0], c.place[:0]
	}
	if tr != nil {
		s.client50, s.client99 = map[string]float64{}, map[string]float64{}
		for _, ep := range scheddEndpoints {
			d := tr.durations("schedd." + ep)
			s.client50[ep] = quantile(d, 0.50)
			s.client99[ep] = quantile(d, 0.99)
		}
		var err error
		if s.server, err = s.metrics(); err != nil {
			return wall, err
		}
	}
	return wall, nil
}

// next draws the client's next operation: the cycle, reshuffled each
// time it is used up.
func (c *scheddClient) next() opKind {
	if c.pos == len(c.cycle) {
		c.rng.Shuffle(len(c.cycle), func(i, j int) { c.cycle[i], c.cycle[j] = c.cycle[j], c.cycle[i] })
		c.pos = 0
	}
	c.pos++
	return c.cycle[c.pos-1]
}

// step sends one operation of the mix and checks its reply.
func (s *scheddMixed) step(c *scheddClient, tr *tracer) {
	kind := c.next()
	method, path, body := "POST", "", ""
	switch kind {
	case opWarm:
		path, body = "/v1/recommend", s.warm[c.rng.Intn(len(s.warm))]
	case opCold:
		path, body = "/v1/recommend", s.coldSpec(c)
	case opSubmit:
		path, body = "/v1/jobs", s.warm[c.rng.Intn(len(s.warm))]
	case opAdvance:
		path = "/v1/advance"
	case opSchedule:
		method, path = "GET", "/v1/schedule"
	case opStatus:
		method, path = "GET", fmt.Sprintf("/v1/jobs/%d", c.job)
	}
	if kind == opAdvance {
		// Advances from both clients must reach the store in clock order.
		s.clockMu.Lock()
		s.clock += advanceStep
		body = fmt.Sprintf(`{"to_seconds":%g}`, s.clock)
		defer s.clockMu.Unlock()
	}
	t0 := time.Now()
	reply, id, err := s.do(method, path, body)
	d := time.Since(t0)
	tr.add("schedd."+opEndpoint[kind], -1, id, t0, d)
	if kind == opWarm || kind == opCold {
		c.rec = append(c.rec, ms(d))
	} else {
		c.place = append(c.place, ms(d))
	}
	if !s.t.op(err == nil, "schedd-mixed: client %d: %v", c.id, err) {
		return
	}
	switch kind {
	case opWarm:
		s.t.op(bytes.Equal(reply, s.ref[body]), "schedd-mixed: warm %s replied %s, first reply %s", body, reply, s.ref[body])
	case opSubmit:
		var js struct {
			ID int `json:"id"`
		}
		if s.t.op(json.Unmarshal(reply, &js) == nil, "schedd-mixed: undecodable job reply %s", reply) {
			c.job = js.ID
		}
	}
}

// coldSpec builds a distinct inline workflow spec from the client's
// seeded generator.
func (s *scheddMixed) coldSpec(c *scheddClient) string {
	sh := coldShapes[c.cold%len(coldShapes)]
	c.cold++
	return fmt.Sprintf(`{"workflow":{"name":"cold-%d-%d-%d","ranks":%d,"iterations":%d,`+
		`"simulation":{"name":"sim","compute_per_iteration":%.6f,"objects":[{"bytes":%d,"count_per_rank":%d}]},`+
		`"analytics":{"name":"ana","compute_per_object":%.6f}}}`,
		s.o.seed, c.id, c.cold, sh.ranks, sh.iterations,
		0.05+0.5*c.rng.Float64(), sh.bytes, sh.count, 0.001+0.01*c.rng.Float64())
}

// metricsDoc is the slice of the daemon's /metrics the benchmark reads.
type metricsDoc struct {
	Requests []struct {
		Endpoint string `json:"endpoint"`
		Latency  struct {
			P50Ms float64 `json:"p50_ms"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"latency"`
	} `json:"requests"`
	Admission struct {
		Shed uint64 `json:"shed"`
	} `json:"admission"`
	Batch struct {
		Batches  uint64  `json:"batches"`
		Merged   uint64  `json:"merged"`
		MeanSize float64 `json:"mean_size"`
	} `json:"batch"`
	Cache struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		InflightJoins uint64 `json:"inflight_joins"`
		Entries       uint64 `json:"entries"`
	} `json:"cache"`
}

func (s *scheddMixed) metrics() (metricsDoc, error) {
	var doc metricsDoc
	data, err := s.call("GET", "/metrics", "")
	if err != nil {
		return doc, err
	}
	err = json.Unmarshal(data, &doc)
	return doc, err
}

func (s *scheddMixed) endToEnd() map[string]metric {
	return map[string]metric{
		"wall_s":           {median(s.walls), "s"},
		"ns_per_event":     {median(s.nsPer), "ns"},
		"req_per_s":        {float64(s.requests) / s.total.Seconds(), "1/s"},
		"recommend_p50_ms": {quantile(s.rec, 0.50), "ms"},
		"recommend_p99_ms": {quantile(s.rec, 0.99), "ms"},
		"place_p50_ms":     {quantile(s.place, 0.50), "ms"},
		"place_p99_ms":     {quantile(s.place, 0.99), "ms"},
	}
}

func (s *scheddMixed) layers(m map[string]metric) {
	server := map[string][2]float64{}
	for _, r := range s.server.Requests {
		server[r.Endpoint] = [2]float64{r.Latency.P50Ms, r.Latency.P99Ms}
	}
	for _, ep := range scheddEndpoints {
		m["schedd."+ep+".client_p50_ms"] = metric{s.client50[ep], "ms"}
		m["schedd."+ep+".client_p99_ms"] = metric{s.client99[ep], "ms"}
		m["schedd."+ep+".server_p50_ms"] = metric{server[ep][0], "ms"}
		m["schedd."+ep+".server_p99_ms"] = metric{server[ep][1], "ms"}
	}
	m["schedd.batches"] = metric{float64(s.server.Batch.Batches), "count"}
	m["schedd.batch_mean_size"] = metric{s.server.Batch.MeanSize, "count"}
	m["schedd.merged"] = metric{float64(s.server.Batch.Merged), "count"}
	m["schedd.shed"] = metric{float64(s.server.Admission.Shed), "count"}
}

// stats reads the run engine's counters from the daemon's /metrics.
func (s *scheddMixed) stats() (core.RunnerStats, error) {
	doc, err := s.metrics()
	c := doc.Cache
	return core.RunnerStats{Hits: c.Hits, Misses: c.Misses, Inflight: c.InflightJoins, Entries: c.Entries}, err
}

// close shuts the HTTP server down, waits for it to stop serving, and
// then stops the daemon's batch collectors.
func (s *scheddMixed) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: daemon serve:", err)
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
}
