package pmem

import (
	"math"
	"math/rand"
	"testing"

	"pmemsched/internal/sim"
	"pmemsched/internal/units"
)

// readCap and writeCap, with terms built once, are Caps's read and
// write sides bit for bit, over a grid of weighted loads, raw stream
// counts and pressures (out-of-range pressures included: the model
// clamps them).
func TestPortCapsMatchCaps(t *testing.T) {
	bits := math.Float64bits
	weights := []float64{0, 0.3, 1, 2.5, 7, 17, 24}
	for _, m := range []Model{Gen1Optane(), Gen2Optane()} {
		for _, p := range []float64{-0.5, 0, 0.1, 0.45, 0.59272, 0.7, 1, 1.5} {
			for _, raw := range []int{0, 1, 4, 5, 13, 30, 48} {
				for _, lr := range weights {
					for _, rr := range weights {
						for _, lw := range weights {
							for _, rw := range weights {
								l := Load{
									LocalReads: lr, RemoteReads: rr, LocalWrites: lw, RemoteWrites: rw,
									SmallReads: lr / 2, SmallWrites: rw,
									RawReads: raw / 2, RawWrites: raw - raw/2, RawSmall: raw / 3,
								}
								c := m.Caps(l, p)
								tm := m.terms(l, p)
								if r, w := m.readCap(l, &tm), m.writeCap(l, &tm); bits(r) != bits(c.Read) || bits(w) != bits(c.Write) {
									t.Fatalf("load %+v pressure %g: readCap %v writeCap %v, Caps %+v", l, p, r, w, c)
								}
							}
						}
					}
				}
			}
		}
	}
}

// A device builds its terms once per install, so its ports must still
// evaluate exactly as Caps on the current census and pressure: across
// installs on either port or both at advancing times (the pressure
// moves), and across weight changes between installs (the terms must
// not depend on weights).
func TestDeviceEvaluateMatchesCaps(t *testing.T) {
	bits := math.Float64bits
	rng := rand.New(rand.NewSource(1))
	d := NewDevice("pmem0", Gen1Optane())
	m := d.Model()
	flows := func(kind sim.OpKind) []*sim.Flow {
		var fs []*sim.Flow
		for i := rng.Intn(20); i > 0; i-- {
			size := 64 * units.MiB
			if rng.Intn(2) == 0 {
				size = 2 * units.KiB
			}
			fs = append(fs, mkFlow(kind, rng.Intn(2) == 0, size, rng.Float64()))
		}
		return fs
	}
	var reads, writes []*sim.Flow
	now := 0.0
	for install := 0; install < 300; install++ {
		now += 2 * rng.Float64()
		switch rng.Intn(3) {
		case 0:
			reads = flows(sim.Read)
			d.ReadPort().SetFlows(now, reads)
		case 1:
			writes = flows(sim.Write)
			d.WritePort().SetFlows(now, writes)
		default:
			reads, writes = flows(sim.Read), flows(sim.Write)
			d.ReadPort().SetFlows(now, reads)
			d.WritePort().SetFlows(now, writes)
		}
		for reweigh := 0; reweigh < 3; reweigh++ {
			c := m.Caps(d.load(), d.Pressure())
			r, _ := d.ReadPort().Evaluate()
			w, _ := d.WritePort().Evaluate()
			if bits(r) != bits(c.Read) || bits(w) != bits(c.Write) {
				t.Fatalf("install %d reweigh %d: ports %v/%v, Caps %+v", install, reweigh, r, w, c)
			}
			for _, f := range append(reads, writes...) {
				f.Weight = 0.05 + 0.95*rng.Float64()
			}
		}
	}
	if d.Pressure() <= 0 {
		t.Fatal("pressure never moved")
	}
}
