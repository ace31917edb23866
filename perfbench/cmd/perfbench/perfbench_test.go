package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/experiments"
)

var update = flag.Bool("update", false, "regenerate reference.json from the current model")

// referenceSeeds are the fleet seeds whose summary digests are
// committed; runs with other seeds check that every pass agrees.
const referenceSeeds = 100

// benchmarkSpec is the part of BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func quickOptions() options {
	return options{seed: 7, seconds: time.Millisecond, sizes: quickSizes}
}

// checkNames demands the metrics carry exactly the listed names and
// units.
func checkNames(t *testing.T, m map[string]metric, names, units []string) {
	t.Helper()
	var got []string
	for name := range m {
		got = append(got, name)
	}
	sort.Strings(got)
	want := append([]string(nil), names...)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("metric names\n got %v\nwant %v", got, want)
	}
	for i, name := range names {
		if m[name].Unit != units[i] {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m[name].Unit, units[i])
		}
	}
}

func TestWorkloadsQuick(t *testing.T) {
	spec := readSpec(t)
	var names, units []string
	for _, e := range spec.EndToEnd {
		names = append(names, e.Name)
		units = append(units, e.Unit)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			if spec.Workloads[i].Name != w.name {
				t.Fatalf("BENCHMARK.json workload %d is %q, want %q", i, spec.Workloads[i].Name, w.name)
			}
			tl := &tally{}
			m, err := measure(w, quickOptions(), tl)
			if err != nil {
				t.Fatal(err)
			}
			if tl.attempted.Load() == 0 || tl.failed.Load() != 0 {
				t.Fatalf("%d of %d operations failed", tl.failed.Load(), tl.attempted.Load())
			}
			checkNames(t, m, names, units)
			for name, v := range m {
				if !(v.Value > 0) {
					t.Errorf("%s = %g, want > 0", name, v.Value)
				}
			}
		})
	}
}

func TestTraceQuick(t *testing.T) {
	spec := readSpec(t)
	var names, units []string
	for _, e := range spec.PerLayer {
		names = append(names, e.Name)
		units = append(units, e.Unit)
	}
	tl := &tally{}
	tr := newTracer()
	m, err := traceRun(allWorkloads[1], quickOptions(), tl, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted.Load() == 0 || tl.failed.Load() != 0 {
		t.Fatalf("%d of %d operations failed", tl.failed.Load(), tl.attempted.Load())
	}
	checkNames(t, m, names, units)
	for _, name := range []string{"sim.stages", "pmem.transfer_stages", "cluster.events", "cluster.passes", "core.misses"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, m[name].Value)
		}
	}
	// Every span is closed, and every parent precedes its children.
	for _, s := range tr.spans {
		if s.End < s.Start || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// TestLayerMap demands layers.json attribute every per-layer metric to
// a layer.
func TestLayerMap(t *testing.T) {
	spec := readSpec(t)
	data, err := os.ReadFile("../../layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
			Moves   []struct {
				Metric   string `json:"metric"`
				Workload string `json:"workload"`
			} `json:"moves"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, l := range doc.Layers {
		for _, pattern := range l.Metrics {
			for _, e := range spec.PerLayer {
				if e.Name == pattern || (strings.HasSuffix(pattern, "*") && strings.HasPrefix(e.Name, strings.TrimSuffix(pattern, "*"))) {
					covered[e.Name] = true
				}
			}
		}
	}
	for _, e := range spec.PerLayer {
		if !covered[e.Name] {
			t.Errorf("per-layer metric %s has no layer in layers.json", e.Name)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "fleet", "--trace", "2"},
		{"--workload", "fleet", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, stdout.String())
		}
	}
}

// TestReference checks the committed reference covers the whole
// paper suite at the known claim count; with -update it regenerates
// the reference from the current model.
func TestReference(t *testing.T) {
	if *update {
		writeReference(t)
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	matched, claims := 0, 0
	for _, e := range experiments.All() {
		r, ok := ref.PaperSuite[e.ID]
		if !ok {
			t.Fatalf("reference lacks experiment %s", e.ID)
		}
		matched += r.Matched
		claims += r.Claims
	}
	if matched != suiteMatched || claims != suiteClaims {
		t.Errorf("reference matches %d/%d claims, want %d/%d", matched, claims, suiteMatched, suiteClaims)
	}
	s := fullSizes
	if ref.Fleet.Nodes != s.fleetNodes || ref.Fleet.Jobs != s.fleetJobs || ref.Fleet.Interarrival != s.fleetInterarrival {
		t.Errorf("reference fleet shape %+v does not match the measured one", ref.Fleet)
	}
	if len(ref.Fleet.Digests) != referenceSeeds {
		t.Errorf("reference has %d fleet digests, want %d", len(ref.Fleet.Digests), referenceSeeds)
	}
}

func writeReference(t *testing.T) {
	ref := reference{PaperSuite: map[string]suiteRef{}}
	rt := core.NewRunner(core.DefaultEnv(), workers)
	for _, e := range experiments.All() {
		rep, err := e.Run(rt)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := rep.Render(h); err != nil {
			t.Fatal(err)
		}
		ok, total := rep.Matched()
		ref.PaperSuite[e.ID] = suiteRef{Digest: hex.EncodeToString(h.Sum(nil)), Matched: ok, Claims: total}
	}
	s := fullSizes
	ref.Fleet = fleetRef{Nodes: s.fleetNodes, Jobs: s.fleetJobs, Interarrival: s.fleetInterarrival, Digests: map[string]string{}}
	o := options{sizes: s}
	b, err := setupFleet(o, &tally{})
	if err != nil {
		t.Fatal(err)
	}
	f := b.(*fleet)
	for seed := int64(0); seed < referenceSeeds; seed++ {
		f.o.seed = seed
		_, digest, err := f.simulate()
		if err != nil {
			t.Fatal(err)
		}
		ref.Fleet.Digests[strconv.FormatInt(seed, 10)] = digest
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	referenceJSON = data
}
