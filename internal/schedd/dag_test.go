package schedd

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// testDAGDoc is the inline DAG spec the wire tests post: a small
// fan-out whose tuning is cheap and deterministic.
const testDAGDoc = `{"name": "fan", "iterations": 2,
  "stages": [{"name": "sim", "ranks": 8, "compute_per_iteration": 0.2,
              "objects": [{"bytes": 1048576, "count_per_rank": 2}]},
             {"name": "stats", "ranks": 4, "compute_per_object": 0.001},
             {"name": "viz", "ranks": 8, "compute_per_object": 0.0002}],
  "edges": [{"from": "sim", "to": "stats"}, {"from": "sim", "to": "viz"}]}`

// --- DAG recommendation wire shape ---

func TestRecommendDAGGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := call(t, ts, "POST", "/v1/recommend", `{"dag":`+testDAGDoc+`}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	checkGolden(t, "recommend_dag_fan.json", body)

	// Byte-identical on repeat: DAG tuning is a pure function of the
	// spec and the engine environment.
	status, again := call(t, ts, "POST", "/v1/recommend", `{"dag":`+testDAGDoc+`}`)
	if status != http.StatusOK {
		t.Fatalf("repeat status %d", status)
	}
	if string(again) != string(body) {
		t.Fatalf("repeated dag recommendation differs:\nfirst:  %s\nsecond: %s", body, again)
	}
}

func TestRecommendDAGRejects(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// dag next to name or workflow is ambiguous.
	status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","dag":`+testDAGDoc+`}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "pick one") {
		t.Fatalf("dag+name: status %d, body %s", status, body)
	}
	// A malformed DAG is the client's fault.
	status, body = call(t, ts, "POST", "/v1/recommend",
		`{"dag": {"name": "cyc", "iterations": 1,
		  "stages": [{"name": "a", "ranks": 1, "objects": [{"bytes": 1, "count_per_rank": 1}]},
		             {"name": "b", "ranks": 1, "objects": [{"bytes": 1, "count_per_rank": 1}]}],
		  "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}]}}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "cycle") {
		t.Fatalf("cyclic dag: status %d, body %s", status, body)
	}
}

// DAG specs are a recommend-only feature: the placement store prices
// jobs with the pair estimator, so /v1/jobs must reject them loudly.
func TestSubmitJobRejectsDAG(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := call(t, ts, "POST", "/v1/jobs", `{"dag":`+testDAGDoc+`}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "/v1/recommend only") {
		t.Fatalf("status %d, body %s", status, body)
	}
}

// --- Advance target validation ---

func TestAdvanceRejectsNonFiniteTargets(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// JSON cannot encode NaN/Inf literals, so the decoder already
	// rejects them as malformed JSON — still a 400, never a 500.
	for _, doc := range []string{`{"to_seconds": NaN}`, `{"to_seconds": 1e999}`} {
		status, _ := call(t, ts, "POST", "/v1/advance", doc)
		if status != http.StatusBadRequest {
			t.Fatalf("advance %s: status %d", doc, status)
		}
	}
	// A backwards target decodes fine and must map to 400 via
	// cluster.ErrInvalidAdvance, not a 500.
	if status, _ := call(t, ts, "POST", "/v1/advance", `{"to_seconds": 50}`); status != http.StatusOK {
		t.Fatalf("first advance: status %d", status)
	}
	status, body := call(t, ts, "POST", "/v1/advance", `{"to_seconds": 10}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "backwards") {
		t.Fatalf("backwards advance: status %d, body %s", status, body)
	}
}

// --- Duplicate-identity rejection (golden wire shapes) ---

func TestAddNodesDuplicateNameGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := call(t, ts, "POST", "/v1/nodes", `{"names": ["n0", "n1"]}`)
	if status != http.StatusOK {
		t.Fatalf("first registration: status %d, body %s", status, body)
	}
	var resp struct {
		Nodes []int `json:"nodes"`
		Total int   `json:"total"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 2 || resp.Total != 2 {
		t.Fatalf("registered %+v", resp)
	}

	// Replaying a name is a deterministic 400 naming the holder.
	status, body = call(t, ts, "POST", "/v1/nodes", `{"names": ["n1"]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("duplicate name: status %d, body %s", status, body)
	}
	checkGolden(t, "nodes_duplicate_name.json", body)

	// A batch with an internal repeat is rejected whole: no prefix of
	// it may register.
	status, body = call(t, ts, "POST", "/v1/nodes", `{"names": ["n2", "n2"]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "repeated in request") {
		t.Fatalf("repeated name: status %d, body %s", status, body)
	}
	status, body = call(t, ts, "POST", "/v1/nodes", `{"names": ["n2"]}`)
	if status != http.StatusOK {
		t.Fatalf("n2 was half-registered by the rejected batch: status %d, body %s", status, body)
	}
}

func TestAddNodesCountXorNames(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := call(t, ts, "POST", "/v1/nodes", `{"count": 2, "names": ["a"]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "not both") {
		t.Fatalf("count+names: status %d, body %s", status, body)
	}
	if status, _ := call(t, ts, "POST", "/v1/nodes", `{"names": [""]}`); status != http.StatusBadRequest {
		t.Fatalf("empty name: status %d", status)
	}
	if status, _ := call(t, ts, "POST", "/v1/nodes", `{}`); status != http.StatusBadRequest {
		t.Fatalf("empty request: status %d", status)
	}
}

func TestSubmitJobDuplicateKeyGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if status, body := call(t, ts, "POST", "/v1/nodes", `{"count": 1}`); status != http.StatusOK {
		t.Fatalf("nodes: status %d, body %s", status, body)
	}
	status, body := call(t, ts, "POST", "/v1/jobs", `{"name": "micro-2k", "ranks": 4, "key": "job-a"}`)
	if status != http.StatusOK {
		t.Fatalf("first submit: status %d, body %s", status, body)
	}
	status, body = call(t, ts, "POST", "/v1/jobs", `{"name": "micro-2k", "ranks": 4, "key": "job-a"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("duplicate key: status %d, body %s", status, body)
	}
	checkGolden(t, "jobs_duplicate_key.json", body)

	// Keyless submissions never collide.
	for i := 0; i < 2; i++ {
		if status, body := call(t, ts, "POST", "/v1/jobs", `{"name": "micro-2k", "ranks": 4}`); status != http.StatusOK {
			t.Fatalf("keyless submit %d: status %d, body %s", i, status, body)
		}
	}
}

// TestSubmitJobOversizedGolden pins the wire text of a job no node can
// hold: it names the workflow only, since the rejected job never gets
// an ID.
func TestSubmitJobOversizedGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if status, body := call(t, ts, "POST", "/v1/jobs", `{"name": "micro-2k", "ranks": 4}`); status != http.StatusOK {
		t.Fatalf("first submit: status %d, body %s", status, body)
	}
	status, body := call(t, ts, "POST", "/v1/jobs", `{"name": "micro-2k", "ranks": 999}`)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized job: status %d, body %s", status, body)
	}
	checkGolden(t, "jobs_oversized.json", body)
}
