package pmem

import (
	"testing"

	"pmemsched/internal/sim"
	"pmemsched/internal/units"
)

func TestNewDevicePanicsOnInvalidModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid model")
		}
	}()
	m := Gen1Optane()
	m.ReadMax = 0
	NewDevice("bad", m)
}

func mkFlow(kind sim.OpKind, remote bool, size int64, weight float64) *sim.Flow {
	return &sim.Flow{
		Class:  sim.FlowClass{Kind: kind, Remote: remote, AccessSize: size},
		Weight: weight,
	}
}

func TestPortsShareCensus(t *testing.T) {
	d := NewDevice("pmem0", Gen1Optane())
	rp, wp := d.ReadPort(), d.WritePort()

	writes := []*sim.Flow{mkFlow(sim.Write, false, 64*units.MiB, 1)}
	reads := []*sim.Flow{mkFlow(sim.Read, false, 64*units.MiB, 1)}
	wp.SetFlows(0, writes)
	pureW, _ := wp.Evaluate()

	// Install reads too: mixing must reduce the write capacity even
	// though the write port's own flow list is unchanged.
	many := make([]*sim.Flow, 24)
	for i := range many {
		many[i] = mkFlow(sim.Read, false, 64*units.MiB, 1)
	}
	_ = reads
	rp.SetFlows(0, many)
	mixedW, _ := wp.Evaluate()
	if mixedW >= pureW {
		t.Fatalf("read census did not couple into write port: %g vs %g", mixedW, pureW)
	}

	// Clearing the reads restores the pure capacity.
	rp.SetFlows(0, nil)
	restored, _ := wp.Evaluate()
	if restored != pureW {
		t.Fatalf("clearing reads did not restore write cap: %g vs %g", restored, pureW)
	}
}

func TestEvaluateReturnsPerFlowCaps(t *testing.T) {
	m := Gen1Optane()
	d := NewDevice("pmem0", m)
	d.WritePort().SetFlows(0, []*sim.Flow{mkFlow(sim.Write, false, units.MiB, 1)})
	_, perFlowW := d.WritePort().Evaluate()
	if perFlowW != m.WritePerFlowMax {
		t.Fatalf("write per-flow cap %g, want %g", perFlowW, m.WritePerFlowMax)
	}
	d.ReadPort().SetFlows(0, []*sim.Flow{mkFlow(sim.Read, false, units.MiB, 1)})
	_, perFlowR := d.ReadPort().Evaluate()
	if perFlowR != m.ReadPerFlowMax {
		t.Fatalf("read per-flow cap %g, want %g", perFlowR, m.ReadPerFlowMax)
	}
}

func TestPressureRisesUnderSustainedWrites(t *testing.T) {
	d := NewDevice("pmem0", Gen1Optane())
	wp := d.WritePort()
	flows := make([]*sim.Flow, 8)
	for i := range flows {
		flows[i] = mkFlow(sim.Write, false, 64*units.MiB, 1)
	}
	wp.SetFlows(0, flows)
	if d.Pressure() != 0 {
		t.Fatalf("initial pressure %g", d.Pressure())
	}
	// Keep the writes installed for many time constants.
	wp.SetFlows(20, flows)
	if d.Pressure() < 0.99 {
		t.Fatalf("pressure after sustained writes %g, want ~1", d.Pressure())
	}
	// Idle period: pressure decays.
	wp.SetFlows(21, nil)
	wp.SetFlows(40, flows)
	if d.Pressure() > 0.01 {
		t.Fatalf("pressure after long idle %g, want ~0", d.Pressure())
	}
}

func TestPressureBurstyStaysLow(t *testing.T) {
	d := NewDevice("pmem0", Gen1Optane())
	wp := d.WritePort()
	flows := make([]*sim.Flow, 8)
	for i := range flows {
		flows[i] = mkFlow(sim.Write, false, 64*units.MiB, 1)
	}
	// 0.2 s bursts every 2 s — a checkpointing pattern.
	now := 0.0
	for i := 0; i < 50; i++ {
		wp.SetFlows(now, flows)
		now += 0.2
		wp.SetFlows(now, nil)
		now += 1.8
	}
	if p := d.Pressure(); p > 0.35 {
		t.Fatalf("bursty pressure %g, want well under sustained", p)
	}
}

func TestPressureTimeMonotone(t *testing.T) {
	// Updates with non-advancing time must be no-ops, not corruption.
	d := NewDevice("pmem0", Gen1Optane())
	wp := d.WritePort()
	flows := []*sim.Flow{mkFlow(sim.Write, false, units.MiB, 1)}
	wp.SetFlows(5, flows)
	p1 := d.Pressure()
	wp.SetFlows(5, flows) // same time
	wp.SetFlows(3, flows) // going backwards: ignored
	if d.Pressure() != p1 {
		t.Fatalf("pressure changed on non-advancing update: %g -> %g", p1, d.Pressure())
	}
}

func TestDeviceAccessors(t *testing.T) {
	m := Gen1Optane()
	d := NewDevice("pmem7", m)
	if d.Name() != "pmem7" {
		t.Errorf("name %q", d.Name())
	}
	if d.Model().ReadMax != m.ReadMax {
		t.Error("model accessor mismatch")
	}
	if d.ReadPort().Name() != "pmem7.read" || d.WritePort().Name() != "pmem7.write" {
		t.Errorf("port names %q/%q", d.ReadPort().Name(), d.WritePort().Name())
	}
}

// BenchmarkDeviceEvaluate measures one evaluation of each port of a
// Gen-1 device carrying 24 readers and 24 writers, mixed local/remote
// and small/large, with varied duty cycles.
func BenchmarkDeviceEvaluate(b *testing.B) {
	d := NewDevice("pmem0", Gen1Optane())
	var reads, writes []*sim.Flow
	for i := 0; i < 24; i++ {
		size := 64 * units.MiB
		if i%4 < 2 {
			size = 2 * units.KiB
		}
		weight := 0.25 + 0.75*float64(i%3)/2
		reads = append(reads, mkFlow(sim.Read, i%2 == 1, size, weight))
		writes = append(writes, mkFlow(sim.Write, i%2 == 0, size, weight))
	}
	d.ReadPort().SetFlows(1, reads)
	d.WritePort().SetFlows(1, writes)
	rp, wp := d.ReadPort(), d.WritePort()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		r, _ := rp.Evaluate()
		w, _ := wp.Evaluate()
		sink += r + w
	}
	if sink <= 0 {
		b.Fatal("no capacity")
	}
}
