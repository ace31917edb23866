package cluster

import (
	"math"
	"math/rand"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workloads"
)

// fullScanPick is the interference-aware pick without the overload-floor
// early exit: every fitting node is scored, the lowest score wins and
// ties keep the lower ID, first away from the avoided node, then
// anywhere.
func fullScanPick(ctx *SchedContext, j Job, prof JobProfile) int {
	pickBy := func(skip int) int {
		best, bestScore := -1, inf()
		ctx.eachFit(j.Workflow.Ranks, jobDRAMBytes(&j), skip, func(n *NodeView) bool {
			if score := n.OverloadAfter(ctx.Model, prof); score < bestScore {
				best, bestScore = n.ID, score
			}
			return true
		})
		return best
	}
	if away := ctx.AvoidNode(j.ID); away >= 0 {
		if best := pickBy(away); best >= 0 {
			return best
		}
	}
	return pickBy(-1)
}

// randomDemand draws from a small set so idle-socket ties and exact
// floor hits are common; irregular draws a negative or NaN demand.
func randomDemand(rng *rand.Rand, irregular bool) float64 {
	if irregular {
		if rng.Intn(2) == 0 {
			return math.NaN()
		}
		return -5e9
	}
	return []float64{0, 0, 4e9, 1e10, 2e10}[rng.Intn(5)]
}

func randomProfile(rng *rand.Rand, irregular bool) JobProfile {
	p := JobProfile{
		IOFraction:          0.5,
		ReadBytesPerSecond:  randomDemand(rng, false),
		WriteBytesPerSecond: randomDemand(rng, false),
		DeviceSocket:        rng.Intn(2),
	}
	if rng.Intn(3) == 0 {
		p.DRAMReadBytesPerSecond = randomDemand(rng, false)
		p.DRAMWriteBytesPerSecond = randomDemand(rng, false)
	}
	if irregular {
		switch rng.Intn(4) {
		case 0:
			p.ReadBytesPerSecond = randomDemand(rng, true)
		case 1:
			p.WriteBytesPerSecond = randomDemand(rng, true)
		case 2:
			p.DRAMReadBytesPerSecond = randomDemand(rng, true)
		default:
			p.DRAMWriteBytesPerSecond = randomDemand(rng, true)
		}
	}
	return p
}

// randomPickContext builds a hand-made scheduling point: nodes with
// random residents (some ending at Now, so they hold no cores), some
// down, optionally behind the free-capacity index, and a job avoiding
// one node. It vouches for regular residents exactly when every
// resident profile is regular, as the engine does.
func randomPickContext(rng *rand.Rand, indexed bool) (*SchedContext, Job, JobProfile) {
	const cores, now = 8, 100.0
	catalog, _ := tieredCatalog()
	ctx := &SchedContext{Now: now, Model: TieredInterference(), residentsRegular: true}
	if rng.Intn(2) == 0 {
		ctx.Model = DefaultInterference()
	}
	dram := 0.0
	if rng.Intn(2) == 0 {
		dram = tierNodeDRAM()
	}
	nodes := 1 + rng.Intn(70)
	for id := 0; id < nodes; id++ {
		n := &NodeView{ID: id, Cores: cores, DRAMBytes: dram}
		if rng.Intn(10) == 0 {
			n.Down, n.UpSeconds = true, now+50
		} else {
			free := cores
			for free > 0 && rng.Intn(3) > 0 {
				ranks := 1 + rng.Intn(free)
				end := now + float64(1+rng.Intn(100))
				if rng.Intn(5) == 0 {
					end = now // zero-duration resident: holds no cores at Now
				} else {
					free -= ranks
				}
				prof := randomProfile(rng, rng.Intn(25) == 0)
				if !prof.regularDemand() {
					ctx.residentsRegular = false
				}
				n.place(1000+len(n.Running), ranks, end, float64(rng.Intn(2))*dram/4, prof)
			}
		}
		ctx.Nodes = append(ctx.Nodes, n)
	}
	if indexed {
		ctx.idx = newFreeIndex(nodes, cores)
		for _, n := range ctx.Nodes {
			ctx.idx.setFree(n.ID, n.FreeAt(now))
		}
	}
	j := Job{ID: 0, Workflow: catalog[rng.Intn(len(catalog))]}
	if rng.Intn(3) == 0 {
		ctx.avoid = []int{rng.Intn(nodes)}
	}
	return ctx, j, randomProfile(rng, rng.Intn(8) == 0)
}

// TestPickEarlyExitMatchesFullScan: over random scheduling points the
// aware pick with its overload-floor early exit chooses the node the
// full scan chooses, through the index and the linear scan, with and
// without an avoided node.
func TestPickEarlyExitMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pol := PMEMAwareInterferenceAware().(*listPolicy)
	exits := 0
	for i := 0; i < 20000; i++ {
		ctx, j, prof := randomPickContext(rng, i%2 == 0)
		want := fullScanPick(ctx, j, prof)
		if got := pol.pick(ctx, &j, prof); got != want {
			t.Fatalf("case %d: early-exit pick chose node %d, full scan %d (profile %+v)", i, got, want, prof)
		}
		// Count the cases where the exit skips fitting nodes: the winner
		// sits at the floor and a fitting node follows it.
		if want >= 0 && ctx.residentsRegular && prof.regularDemand() {
			floor := ctx.Model.overloadAll(prof.ReadBytesPerSecond, prof.WriteBytesPerSecond,
				prof.DRAMReadBytesPerSecond, prof.DRAMWriteBytesPerSecond)
			later := false
			ctx.eachFit(j.Workflow.Ranks, jobDRAMBytes(&j), -1, func(n *NodeView) bool {
				later = n.ID > want
				return !later
			})
			if later && ctx.Nodes[want].OverloadAfter(ctx.Model, prof) == floor {
				exits++
			}
		}
	}
	if exits < 1000 {
		t.Errorf("the early exit skipped fitting nodes in only %d of 20000 cases", exits)
	}
}

// TestPickIrregularDemandFallsBack: demands that are negative or NaN
// void the floor argument, so the pick must scan every node.
func TestPickIrregularDemandFallsBack(t *testing.T) {
	for _, p := range []JobProfile{
		{ReadBytesPerSecond: -1},
		{WriteBytesPerSecond: math.NaN()},
		{DRAMReadBytesPerSecond: math.Inf(1)},
		{DRAMWriteBytesPerSecond: math.Inf(-1)},
	} {
		if p.regularDemand() {
			t.Errorf("%+v counts as regular", p)
		}
	}
	if !(JobProfile{ReadBytesPerSecond: 1e10, DRAMWriteBytesPerSecond: 0}).regularDemand() {
		t.Error("a finite non-negative profile counts as irregular")
	}

	// Node 0 is idle, so the job scores its floor there. Node 1 holds a
	// resident with negative demand, placed this pass, which cancels the
	// job's own: the full scan's winner is node 1, below the floor.
	iv := DefaultInterference()
	job := JobProfile{ReadBytesPerSecond: 2 * iv.ReadBandwidthPerSocket}
	ctx := &SchedContext{Now: 0, Model: iv, residentsRegular: true,
		Nodes: []*NodeView{{ID: 0, Cores: 8}, {ID: 1, Cores: 8}}}
	ctx.Place(Job{ID: 5, Workflow: workloads.GTCReadOnly(2)}, 1, core.SLocW, 10, JobProfile{ReadBytesPerSecond: -2 * iv.ReadBandwidthPerSocket})
	if ctx.residentsRegular {
		t.Fatal("placing a negative-demand resident left the context vouching for regular residents")
	}
	pol := PMEMAwareInterferenceAware().(*listPolicy)
	j := Job{ID: 6, Workflow: workloads.GTCReadOnly(2)}
	if got := pol.pick(ctx, &j, job); got != 1 {
		t.Errorf("pick chose node %d, want node 1 (the full scan's below-floor winner)", got)
	}

	// The engine stops vouching once it commits an irregular profile.
	catalog, est := propertyCatalog()
	est.prof[catalog[0].Name] = JobProfile{ReadBytesPerSecond: math.NaN()}
	e, err := newEngine(Options{Nodes: 2, CoresPerSocket: 8, Policy: pol, Estimator: est, Interference: iv})
	if err != nil {
		t.Fatal(err)
	}
	st := e.addJob(Job{ID: 0, Workflow: catalog[0]})
	st.phase = JobQueued
	e.pending = append(e.pending, st.job)
	if err := e.pass(0); err != nil {
		t.Fatal(err)
	}
	if !e.irregular {
		t.Error("committing a NaN-demand profile left the engine vouching for regular residents")
	}
}
