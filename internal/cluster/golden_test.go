package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pmemsched/internal/core"
)

// The golden files pin the engine's interference-off output byte for
// byte: the fluid reflow engine must be indistinguishable from the
// original fixed-duration engine whenever the interference model is
// disabled. Regenerate with
//
//	go test ./internal/cluster -run Golden -update-golden
//
// only when an intentional output change lands (and say so in the
// commit message).
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files and the replay digests")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update-golden to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: interference-off output diverged from the golden bytes (%d vs %d bytes)", name, len(got), len(want))
	}
}

// TestGoldenCraftedEASY pins the crafted backfill scenario's full JSON
// and text reports under the canned estimator.
func TestGoldenCraftedEASY(t *testing.T) {
	tr, est := craftedTrace()
	m, err := Simulate(tr, craftedOptions(EASY(core.SLocW), est))
	if err != nil {
		t.Fatal(err)
	}
	var js, txt bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "crafted_easy.json", js.Bytes())
	if err := m.Render(&txt); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "crafted_easy.txt", txt.Bytes())
}

// TestGoldenScriptedFaults pins the full JSON and text reports of the
// hand-computed failure scenario (see faultTrace): the retry/backoff/
// checkpoint state machine's output byte for byte, including the fault
// columns and the goodput/badput summary line.
func TestGoldenScriptedFaults(t *testing.T) {
	tr, est := faultTrace()
	m, err := Simulate(tr, faultOptions(EASY(core.SLocW), est,
		ScheduledFaults(Outage{Node: 0, DownSeconds: 30, UpSeconds: 40}), faultRetry()))
	if err != nil {
		t.Fatal(err)
	}
	var js, txt bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "faults_scripted.json", js.Bytes())
	if err := m.Render(&txt); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "faults_scripted.txt", txt.Bytes())
}

// TestGoldenSuitePMEMAware pins the bundled suite trace under the real
// cost model and the PMEM-aware policy — the wfsched CLI's default
// workload.
func TestGoldenSuitePMEMAware(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	rt := core.NewRunner(core.DefaultEnv(), 0)
	tr, err := SuiteTrace(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(tr, Options{Nodes: 2, Policy: PMEMAware(), Estimator: NewEstimator(rt)})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "suite_pmem_aware.json", js.Bytes())
}
