package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"pmemsched/internal/workflow"
)

// Property coverage for the DRAM tier as a scheduled resource: random
// traces where half the catalog demands DRAM run against nodes with a
// finite DRAM capacity, and the schedule must conserve that capacity
// the same way it conserves cores — no instant where the resident
// jobs' DRAM demands exceed a node, no negative migration volumes, and
// byte-identical reports across fresh reruns and against the linear
// reference (the DRAM fit path bypasses the free index, so their
// agreement is exactly the invariant under test).

// tieredCatalog is propertyCatalog with tiers on half the workloads:
// the streaming micro workload stages through DRAM (write-stage-drain,
// the largest resident set), the long GTC run spills, the matrix-mult
// job promotes. The streaming job also carries DRAM bandwidth demand
// so TieredInterference's budgets bind.
func tieredCatalog() ([]workflow.Spec, fakeEst) {
	specs, est := propertyCatalog()
	specs[1].Tier = workflow.TierSpec{Policy: workflow.TierDRAMFirstSpill}
	specs[2].Tier = workflow.TierSpec{Policy: workflow.TierHotPromote}
	specs[5].Tier = workflow.TierSpec{Policy: workflow.TierWriteStageDrain}
	p := est.prof[specs[5].Name]
	p.DRAMReadBytesPerSecond = 2e9
	p.DRAMWriteBytesPerSecond = 2e9
	est.prof[specs[5].Name] = p
	return specs, est
}

// tierNodeDRAM sizes the node capacity off the catalog: twice the
// largest single demand, so every job fits alone, some pairs fit
// together, and the constraint genuinely binds.
func tierNodeDRAM() float64 {
	specs, _ := tieredCatalog()
	var max int64
	for _, wf := range specs {
		if d := wf.TierDRAMBytes(); d > max {
			max = d
		}
	}
	return 2 * float64(max)
}

func simulateTiered(t *testing.T, seed int64, opt Options) (*Metrics, Trace) {
	t.Helper()
	catalog, _ := tieredCatalog()
	tr, err := Synthetic(catalog, SyntheticConfig{Jobs: 12, MeanInterarrivalSeconds: 15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// checkDRAMConservation sweeps every placement instant and verifies
// the node's resident DRAM demand never exceeds its capacity, plus the
// aggregate byte-seconds identity that follows (total DRAM-seconds on
// a node bounded by capacity x occupied span).
func checkDRAMConservation(t *testing.T, label string, m *Metrics, tr Trace, capacity float64) {
	t.Helper()
	demand := make(map[int]float64, len(tr.Jobs))
	for _, j := range tr.Jobs {
		if mig := j.Workflow.TierMigratedBytes(); mig < 0 {
			t.Fatalf("%s: job %d migrated bytes %d < 0", label, j.ID, mig)
		}
		demand[j.ID] = float64(j.Workflow.TierDRAMBytes())
	}
	byNode := make(map[int][]JobRecord)
	for _, r := range m.Records {
		byNode[r.Node] = append(byNode[r.Node], r)
	}
	for node, recs := range byNode {
		var byteSeconds, lo, hi float64
		for i, r := range recs {
			if i == 0 || r.StartSeconds < lo {
				lo = r.StartSeconds
			}
			if r.EndSeconds > hi {
				hi = r.EndSeconds
			}
			byteSeconds += demand[r.ID] * (r.EndSeconds - r.StartSeconds)
			// Occupancy at r's start: every record on the node whose
			// interval covers the instant (ends strictly later, same
			// convention as NodeView.DRAMFreeAt).
			var load float64
			for _, o := range recs {
				if o.StartSeconds <= r.StartSeconds+1e-9 && o.EndSeconds > r.StartSeconds+1e-9 {
					load += demand[o.ID]
				}
			}
			if load > capacity*(1+1e-9) {
				t.Errorf("%s: node %d holds %g DRAM bytes at t=%g, capacity %g",
					label, node, load, r.StartSeconds, capacity)
			}
		}
		if span := hi - lo; span > 0 && byteSeconds > capacity*span*(1+1e-9) {
			t.Errorf("%s: node %d DRAM byte-seconds %g exceed capacity x span %g",
				label, node, byteSeconds, capacity*span)
		}
	}
}

// TestPropertyTieredTraces is the tier property sweep: 20 seeds x 4
// policies x {plain DRAM capacity, tiered interference}, each checked
// for the structural invariants, DRAM conservation, byte-determinism
// across fresh reruns, and agreement with the linear reference.
func TestPropertyTieredTraces(t *testing.T) {
	capacity := tierNodeDRAM()
	if capacity <= 0 {
		t.Fatal("tiered catalog demands no DRAM; the sweep would test nothing")
	}
	variants := []struct {
		name string
		opt  func() Options
	}{
		{"tier", func() Options { return Options{DRAMBytesPerNode: capacity} }},
		{"tier+interference", func() Options {
			return Options{DRAMBytesPerNode: capacity, Interference: TieredInterference()}
		}},
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, pol := range propertyPolicies() {
			for _, v := range variants {
				label := fmt.Sprintf("seed %d, %s, %s", seed, pol.Name(), v.name)
				opt := v.opt()
				opt.Nodes = 2
				opt.CoresPerSocket = 8
				opt.Policy = pol
				_, est := tieredCatalog()
				opt.Estimator = est
				m, tr := simulateTiered(t, seed, opt)
				checkInvariants(t, label, m, tr, opt)
				checkDRAMConservation(t, label, m, tr, capacity)

				var first, second bytes.Buffer
				if err := m.WriteJSON(&first); err != nil {
					t.Fatal(err)
				}
				m2, _ := simulateTiered(t, seed, opt)
				if err := m2.WriteJSON(&second); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("%s: fresh rerun produced different report bytes", label)
				}

				checkLinearRef(t, label, opt, m, func(o Options) *Metrics {
					lin, _ := simulateTiered(t, seed, o)
					return lin
				})
			}
		}
	}
}

// TestPropertyTierUnmodeledDRAM pins the off switch at the fleet
// level: with node DRAM capacity 0 (unmodeled), a trace of tiered
// workloads must schedule byte-identically to the same trace with no
// tiers at all — the estimator keys off workflow names, so any
// divergence could only come from the DRAM fit path leaking into
// placement when the capacity says it is off.
func TestPropertyTierUnmodeledDRAM(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, pol := range propertyPolicies() {
			label := fmt.Sprintf("seed %d, %s", seed, pol.Name())
			opt := Options{Nodes: 2, CoresPerSocket: 8, Policy: pol}
			_, est := tieredCatalog()
			opt.Estimator = est
			tm, _ := simulateTiered(t, seed, opt)
			pm, _ := simulateFresh(t, seed, opt)
			var tiered, plain bytes.Buffer
			if err := tm.WriteJSON(&tiered); err != nil {
				t.Fatal(err)
			}
			if err := pm.WriteJSON(&plain); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tiered.Bytes(), plain.Bytes()) {
				t.Fatalf("%s: unmodeled DRAM capacity still changed the schedule", label)
			}
		}
	}
}
