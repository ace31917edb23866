package sim_test

import (
	"fmt"
	"testing"

	"pmemsched/internal/numa"
	"pmemsched/internal/platform"
	"pmemsched/internal/sim"
	"pmemsched/internal/units"
)

// rateRoundKernel returns a kernel whose processes have all started a
// long transfer on the Gen-1 testbed's socket-0 PMEM: 24 readers and 24
// writers, half of each issued from the remote socket and half
// sub-stripe, with a per-operation software cost so the duty-cycle
// weights feed back into the census.
func rateRoundKernel() *sim.Kernel {
	m := platform.Testbed()
	k := sim.New()
	for i := 0; i < 48; i++ {
		kind := sim.Read
		if i >= 24 {
			kind = sim.Write
		}
		size := 64 * units.MiB
		if i/2%2 == 0 {
			size = 2 * units.KiB
		}
		path, class, _ := m.Path(platform.Access{From: numa.SocketID(i % 2), Device: 0, Kind: kind, Bytes: size})
		k.Spawn(fmt.Sprintf("rank%d", i), sim.Sequence(sim.Transfer{
			Bytes: 1 << 30, OpBytes: float64(size), PerOpSeconds: 2e-6,
			Path: path, Class: class, Tag: "io",
		}))
	}
	sim.Prime(k)
	return k
}

// BenchmarkRateRound measures one kernel rate round (install the flow
// lists, then the Gauss–Seidel sweeps with their device evaluations) at
// 48 flows. Each op starts from fresh weights, as a round over new
// flows does: on the settled weights the previous op left, the round
// would stop at its fixed point after one sweep.
func BenchmarkRateRound(b *testing.B) {
	k := rateRoundKernel()
	sim.AssignRates(k)
	sim.AssignRates(k) // both round buffers are now sized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ResetWeights(k)
		sim.AssignRates(k)
	}
}

// Once its buffers have been sized, a rate round on an unchanged flow
// set allocates nothing.
func TestRateRoundSteadyStateAllocs(t *testing.T) {
	k := rateRoundKernel()
	sim.AssignRates(k)
	sim.AssignRates(k) // both round buffers are now sized
	if n := testing.AllocsPerRun(20, func() { sim.AssignRates(k) }); n != 0 {
		t.Fatalf("steady-state rate round allocates %g times, want 0", n)
	}
}
