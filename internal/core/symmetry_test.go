package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pmemsched/internal/numa"
	"pmemsched/internal/platform"
	"pmemsched/internal/pmem"
	"pmemsched/internal/sim"
	"pmemsched/internal/units"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// symmetricEnv is an n-socket machine of testbed sockets; edit, when
// set, makes it asymmetric after it is built.
func symmetricEnv(n int, edit func(*platform.Machine)) Env {
	return Env{NewMachine: func() *platform.Machine {
		m := platform.New(numa.Config{
			Sockets:        n,
			CoresPerSocket: 28,
			DRAMBandwidth:  105 * units.GBps,
			UPIBandwidth:   21.6 * units.GBps,
		}, pmem.Gen1Optane())
		if edit != nil {
			edit(m)
		}
		return m
	}}
}

// randomSpec draws a small workflow: one or two object populations from
// 1 KiB to 64 MiB, optional compute and jitter, and, for three specs in
// four, an enabled tier policy, so the TierDRAM path is covered.
func randomSpec(rng *rand.Rand, i int) workflow.Spec {
	var objs []workflow.ObjectSpec
	for n := 1 + rng.Intn(2); n > 0; n-- {
		objs = append(objs, workflow.ObjectSpec{Bytes: 1 << (10 + rng.Intn(17)), CountPerRank: 1 + rng.Intn(3)})
	}
	writer := workflow.ComponentSpec{
		Name:                "sim",
		ComputePerIteration: rng.Float64() * 0.05,
		ComputeJitter:       rng.Float64() * 0.2,
		Objects:             objs,
	}
	ana := workflow.AnalyticsKernel{Name: "ana", ComputePerObject: rng.Float64() * 1e-3}
	wf := workflow.Couple(fmt.Sprintf("random-%d", i), writer, ana, 1+rng.Intn(16), 1+rng.Intn(3))
	switch tierPolicies[i%len(tierPolicies)] {
	case workflow.TierDRAMFirstSpill:
		wf.Tier = workflow.TierSpec{Policy: workflow.TierDRAMFirstSpill, DRAMBytesPerRank: int64(rng.Intn(2)) * writer.BytesPerRank() / 2}
	case workflow.TierWriteStageDrain:
		wf.Tier = workflow.TierSpec{Policy: workflow.TierWriteStageDrain, DrainBytesPerSecond: float64(rng.Intn(3)) * units.GBps}
	case workflow.TierHotPromote:
		wf.Tier = workflow.TierSpec{Policy: workflow.TierHotPromote, PromoteAfterIterations: 1 + rng.Intn(2)}
	}
	return wf
}

// orbitOf names a deployment's orbit under socket relabelling: its mode
// and its channel locality.
func orbitOf(dep Deployment) [2]int { return [2]int{int(dep.Mode), int(dep.Locality())} }

// TestPlacementOracleSocketSymmetry is the symmetry invariant, bit for
// bit: on 2-, 3- and 4-socket machines of identical sockets, every
// deployment of one orbit (mode × channel locality) yields the same
// Result from a literal run, and a runner, which simulates one
// representative per orbit, returns for every deployment exactly what
// its literal run returns.
func TestPlacementOracleSocketSymmetry(t *testing.T) {
	specs := 12
	if testing.Short() {
		specs = 4
	}
	rng := rand.New(rand.NewSource(1))
	for _, sockets := range []int{2, 3, 4} {
		env := symmetricEnv(sockets, nil)
		// Two modes × the channel localities: local to either component,
		// and, from three sockets on, local to neither.
		want := 6
		if sockets == 2 {
			want = 4
		}
		for i := 0; i < specs; i++ {
			wf := randomSpec(rng, i)
			rt := NewRunner(env, 2)
			orbits := map[[2]int]Result{}
			for _, dep := range deploymentSpace(sockets) {
				want, _, err := RunDeployment(wf, dep, env, false)
				if err != nil {
					t.Fatalf("%d sockets, %s under %s: %v", sockets, wf.Name, dep.Label(), err)
				}
				if first, ok := orbits[orbitOf(dep)]; !ok {
					orbits[orbitOf(dep)] = want
				} else if !reflect.DeepEqual(want, first) {
					t.Fatalf("%d sockets, %s: %s differs from its orbit's first deployment\ngot:  %+v\nwant: %+v",
						sockets, wf.Name, dep.Label(), want, first)
				}
				got, err := rt.RunDeployment(wf, dep)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%d sockets, %s under %s: runner returned %+v, %v; literal run %+v",
						sockets, wf.Name, dep.Label(), got, err, want)
				}
			}
			if len(orbits) != want {
				t.Fatalf("%d sockets: %d orbits, want %d", sockets, len(orbits), want)
			}
			if st := rt.Stats(); st.Misses != uint64(want) || st.Runs() != uint64(len(deploymentSpace(sockets))) {
				t.Errorf("%d sockets, %s: %d misses in %d runs, want %d in %d",
					sockets, wf.Name, st.Misses, st.Runs(), want, len(deploymentSpace(sockets)))
			}
		}
	}
}

// TestAsymmetricEnvRunsLiteral: a machine with one unlike socket, or an
// environment with a tag, is not canonicalized. Every deployment of the
// placement search is its own miss, and every result is its literal
// run's; the symmetric machine beside them simulates six orbits.
func TestAsymmetricEnvRunsLiteral(t *testing.T) {
	gen2 := func(m *platform.Machine) { m.PMEM[2] = pmem.NewDevice("pmem2", pmem.Gen2Optane()) }
	slowDRAM := func(m *platform.Machine) {
		ddr := pmem.TestbedDDR4()
		ddr.ReadMax /= 2
		m.DRAM[0] = pmem.NewDRAMDevice("dram0", ddr)
	}
	fewerCores := func(m *platform.Machine) { m.Topology.Sockets[1].Cores = 20 }
	narrowBus := func(m *platform.Machine) { m.Topology.Sockets[2].DRAM = sim.NewFixedResource("dram2", 50*units.GBps) }
	tagged := symmetricEnv(3, nil)
	tagged.Tag = "tagged"
	wf := workloads.GTCReadOnly(8)
	for _, c := range []struct {
		name   string
		env    Env
		misses uint64
	}{
		{"symmetric", symmetricEnv(3, nil), 6},
		{"gen2 pmem on socket 2", symmetricEnv(3, gen2), 36},
		{"slower DRAM tier on socket 0", symmetricEnv(3, slowDRAM), 36},
		{"20 cores on socket 1", symmetricEnv(3, fewerCores), 36},
		{"narrower memory bus on socket 2", symmetricEnv(3, narrowBus), 36},
		{"tagged", tagged, 36},
	} {
		rt := NewRunner(c.env, 2)
		dec, err := rt.PlacementOracle(wf, 3)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st := rt.Stats(); st.Misses != c.misses || len(dec.Results) != 36 {
			t.Errorf("%s: %d misses for %d deployments, want %d", c.name, st.Misses, len(dec.Results), c.misses)
		}
		for _, dr := range dec.Results {
			want, _, err := RunDeployment(wf, dr.Deployment, c.env, false)
			if err != nil || !reflect.DeepEqual(dr.Result, want) {
				t.Fatalf("%s: %s: search found %+v; literal run %+v, %v", c.name, dr.Deployment.Label(), dr.Result, want, err)
			}
		}
	}
}

// TestSymmetricRunnerKeepsLiteralErrors: a deployment that cannot place
// its components runs literally on a symmetric runner, so its error
// text is the literal run's (the package-level RunDeployment, which
// never canonicalizes) and names its own sockets. A socket the machine
// lacks is an error, not a panic. The first two fixtures are ones a
// canonicalization of every deployment got wrong: it ran the co-located
// deployment, and blamed socket 2 for a channel on socket 5.
func TestSymmetricRunnerKeepsLiteralErrors(t *testing.T) {
	gtc8, wide := workloads.GTCReadOnly(8), workloads.GTCReadOnly(8)
	wide.Ranks = 40
	for _, c := range []struct {
		name    string
		sockets int
		wf      workflow.Spec
		dep     Deployment
		want    string
	}{
		{"co-located components", 2, gtc8, Deployment{Mode: Serial, SimSocket: 1, AnaSocket: 1, DeviceSocket: 1}, "distinct sockets (got 1)"},
		{"channel socket out of range", 2, gtc8, Deployment{Mode: Serial, SimSocket: 0, AnaSocket: 1, DeviceSocket: 5}, "socket 5"},
		{"simulation socket out of range", 4, gtc8, Deployment{Mode: Parallel, SimSocket: 6, AnaSocket: 1, DeviceSocket: 1}, "no socket 6 in 4-socket"},
		{"negative analytics socket", 4, gtc8, Deployment{Mode: Parallel, SimSocket: 0, AnaSocket: -1, DeviceSocket: 0}, "no socket -1 in 4-socket"},
		{"more ranks than cores", 4, wide, Deployment{Mode: Serial, SimSocket: 3, AnaSocket: 2, DeviceSocket: 3}, "socket 3: cannot reserve 40 cores"},
	} {
		env := symmetricEnv(c.sockets, nil)
		_, _, want := RunDeployment(c.wf, c.dep, env, false)
		if want == nil || !strings.Contains(want.Error(), c.want) {
			t.Fatalf("%s: literal run returned %v, want an error naming %q", c.name, want, c.want)
		}
		rt := NewRunner(env, 1)
		if _, got := rt.RunDeployment(c.wf, c.dep); got == nil || got.Error() != want.Error() {
			t.Errorf("%s: runner returned %v, literal run %v", c.name, got, want)
		}
	}
}

// BenchmarkPlacementOracle measures one whole placement search on a
// fresh two-worker runner over a 4-socket machine: the 96 deployments
// of one workflow, simulated once per orbit.
func BenchmarkPlacementOracle(b *testing.B) {
	env := symmetricEnv(4, nil)
	wf := workloads.GTCReadOnly(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(env, 2).PlacementOracle(wf, 4); err != nil {
			b.Fatal(err)
		}
	}
}
