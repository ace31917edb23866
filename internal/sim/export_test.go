package sim

import "math"

// Test-only entry points for the external sim_test package, which
// drives single rate rounds on real device models.
var (
	Prime       = (*Kernel).prime
	AssignRates = (*Kernel).assignRates
)

// Flows returns the active flows in arrival order.
func Flows(k *Kernel) []*Flow { return k.flows }

// ResetWeights sets every active flow's Weight back to 1, the weight a
// new flow starts from, so the next rate round starts unsettled.
func ResetWeights(k *Kernel) {
	for _, f := range k.flows {
		f.Weight = 1
	}
}

// Step runs one iteration of Run's event loop, computing rates with
// round whenever the flow set has changed, and reports whether the
// simulation can go on.
func Step(k *Kernel, round func(*Kernel)) bool {
	if k.allDone() {
		return false
	}
	if k.dirty {
		round(k)
		k.dirty = false
	}
	t, ok := k.nextEventTime()
	if !ok {
		return false
	}
	k.advanceTo(t)
	k.completeStages()
	return true
}

// ReferenceRound is the rate round without evaluation reuse or the
// early exit: the same layout and installs, then all rateIterations
// sweeps with an Evaluate and a census on every read. assignRates must
// match it bit for bit.
func ReferenceRound(k *Kernel) {
	rd := k.installRound()
	for iter := 0; iter < rateIterations; iter++ {
		slots := k.pathSlots
		for _, f := range k.flows {
			share := math.Inf(1)
			for _, r := range f.path {
				cap, perFlow := r.Evaluate()
				w := 0.0
				for _, g := range rd.flowsOn[slots[0]] {
					w += g.Weight
				}
				slots = slots[1:]
				if w < 1 {
					w = 1
				}
				s := math.Min(cap/w, perFlow)
				if s < share {
					share = s
				}
			}
			if share < minRate {
				share = minRate
			}
			f.device = share
			if f.perOp > 0 {
				cycle := f.perOp + f.opBytes/share
				f.rate = f.opBytes / cycle
				f.Weight = (f.opBytes / share) / cycle
			} else {
				f.rate = share
				f.Weight = 1
			}
			if f.rate < minRate {
				f.rate = minRate
			}
		}
	}
}
