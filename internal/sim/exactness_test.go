package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmemsched/internal/numa"
	"pmemsched/internal/platform"
	"pmemsched/internal/sim"
	"pmemsched/internal/units"
)

// countingResource forwards to a real resource and counts its
// evaluations.
type countingResource struct {
	sim.Resource
	evals *int
}

func (c *countingResource) Evaluate() (float64, float64) {
	*c.evals++
	return c.Resource.Evaluate()
}

// exactnessKernel builds a seeded random workload on a fresh Gen-1
// testbed: ranks on either socket issuing reads and writes to either
// socket's PMEM or DRAM tier, small and large, with and without a
// per-operation software cost, between compute stages of random
// length. Every path resource is wrapped to count evaluations into
// evals. The same seed builds the same workload.
func exactnessKernel(seed int64, evals *int) (*sim.Kernel, *platform.Machine) {
	rng := rand.New(rand.NewSource(seed))
	m := platform.Testbed()
	wrapped := map[sim.Resource]sim.Resource{}
	wrap := func(path []sim.Resource) []sim.Resource {
		out := make([]sim.Resource, len(path))
		for i, r := range path {
			w, ok := wrapped[r]
			if !ok {
				w = &countingResource{Resource: r, evals: evals}
				wrapped[r] = w
			}
			out[i] = w
		}
		return out
	}
	k := sim.New()
	procs := 2 + rng.Intn(30)
	for p := 0; p < procs; p++ {
		var stages []sim.Stage
		for s := 1 + rng.Intn(5); s > 0; s-- {
			if rng.Intn(2) == 0 {
				stages = append(stages, sim.Compute{Seconds: 0.05 * rng.Float64(), Tag: "c"})
			}
			size := 64 * units.MiB
			if rng.Intn(2) == 0 {
				size = 2 * units.KiB
			}
			a := platform.Access{
				From:   numa.SocketID(rng.Intn(2)),
				Device: numa.SocketID(rng.Intn(2)),
				Kind:   sim.OpKind(rng.Intn(2)),
				Bytes:  size,
			}
			if rng.Intn(4) == 0 {
				a.Tier = platform.TierDRAM
			}
			path, class, _ := m.Path(a)
			perOp := 0.0
			if rng.Intn(3) > 0 {
				perOp = math.Pow(10, -7+3*rng.Float64())
			}
			stages = append(stages, sim.Transfer{
				Bytes:   float64(units.MiB) * (1 + 4096*rng.Float64()),
				OpBytes: float64(size), PerOpSeconds: perOp,
				Path: wrap(path), Class: class, Tag: "io",
			})
		}
		k.Spawn(fmt.Sprintf("p%d", p), sim.Sequence(stages...))
	}
	return k, m
}

// The kernel's rate round reuses evaluations while no weight changes
// and stops at a bit-exact fixed point. Neither may move a bit: driven
// in lockstep with the reference round (four sweeps, an evaluation on
// every read) over seeded random workloads on real device models,
// every round must leave every flow's Rate, DeviceRate and Weight
// bitwise equal. The test also demands that both shortcuts fired.
func TestRateRoundMatchesReference(t *testing.T) {
	bits := math.Float64bits
	rounds, early, evals, refEvals := 0, 0, 0, 0
	pressure := 0.0
	for seed := int64(1); seed <= 40; seed++ {
		k, m := exactnessKernel(seed, &evals)
		ref, _ := exactnessKernel(seed, &refEvals)
		sim.Prime(k)
		sim.Prime(ref)
		for step := 0; ; step++ {
			stepped := sim.Step(k, func(k *sim.Kernel) {
				rounds++
				if sim.AssignRates(k) < 4 {
					early++
				}
			})
			refStepped := sim.Step(ref, sim.ReferenceRound)
			if stepped != refStepped {
				t.Fatalf("seed %d step %d: kernel continues %v, reference %v", seed, step, stepped, refStepped)
			}
			if !stepped {
				break
			}
			if k.Now() != ref.Now() {
				t.Fatalf("seed %d step %d: kernel at t=%v, reference at t=%v", seed, step, k.Now(), ref.Now())
			}
			fs, rs := sim.Flows(k), sim.Flows(ref)
			if len(fs) != len(rs) {
				t.Fatalf("seed %d step %d: %d active flows, reference %d", seed, step, len(fs), len(rs))
			}
			for i, f := range fs {
				r := rs[i]
				if bits(f.Rate()) != bits(r.Rate()) || bits(f.DeviceRate()) != bits(r.DeviceRate()) || bits(f.Weight) != bits(r.Weight) {
					t.Fatalf("seed %d step %d flow %d: rate %v device %v weight %v, reference %v %v %v",
						seed, step, i, f.Rate(), f.DeviceRate(), f.Weight, r.Rate(), r.DeviceRate(), r.Weight)
				}
			}
		}
		if k.Now() != ref.Now() {
			t.Fatalf("seed %d: kernel ended at t=%v, reference at t=%v", seed, k.Now(), ref.Now())
		}
		for _, d := range m.PMEM {
			pressure = max(pressure, d.Pressure())
		}
	}
	t.Logf("%d rounds, %d stopped early; %d evaluations, reference %d", rounds, early, evals, refEvals)
	if pressure < 0.05 {
		t.Fatalf("write pressure peaked at %g; the workloads should move it", pressure)
	}
	if rounds < 100 {
		t.Fatalf("only %d rate rounds; the workloads should change their flow sets often", rounds)
	}
	if early == 0 {
		t.Error("no round stopped at a fixed point before its fourth sweep")
	}
	if evals >= refEvals {
		t.Errorf("kernel made %d evaluations, reference %d: no evaluation was reused", evals, refEvals)
	}
}
