package pmem

import (
	"fmt"

	"pmemsched/internal/sim"
	"pmemsched/internal/units"
)

// DRAM tier. The multi-tier memory model places part of a component's
// working set in socket-local DDR4 instead of PMEM: DRAM staging
// buffers for write-stage-drain, promoted read-hot objects for
// hot-promote, and the DRAM half of a dram-first-spill split. DRAM is
// a far simpler device than Optane — no XPBuffer, no media write
// credits, no interleave-stripe contention — so its model is just the
// paper-testbed bandwidth envelope with linear concurrency scaling and
// per-channel stream caps. Cross-socket DRAM accesses are bounded by
// the UPI link, which the platform layer places on the flow path, so
// the model itself carries only the latency difference, not a remote
// bandwidth penalty.

// DRAMModel holds the calibration constants for one socket's DRAM.
// The zero value is unusable; start from TestbedDDR4.
type DRAMModel struct {
	// Peak aggregate bandwidths across the socket's channels,
	// bytes/second.
	ReadMax  float64
	WriteMax float64

	// ScaleOps is the effective concurrent-operation count at which the
	// aggregate envelope is reached; below it bandwidth scales linearly
	// (a handful of streams saturate six DDR4-2933 channels).
	ScaleOps float64

	// Per-flow stream caps: a single thread's load/store stream cannot
	// exceed these even on an idle socket.
	ReadPerFlowMax  float64
	WritePerFlowMax float64

	// Idle per-operation latencies, seconds.
	ReadLatencyLocal   float64
	ReadLatencyRemote  float64
	WriteLatencyLocal  float64
	WriteLatencyRemote float64
}

// TestbedDDR4 returns the calibration for the paper testbed's DRAM: six
// DDR4-2933 channels per socket (the same platform whose interleaved
// Optane the paper measures). The aggregate envelope matches the
// 105 GB/s per-socket DRAM bandwidth the NUMA topology already uses as
// each socket's memory-bus limit; latencies follow the measurement
// studies the paper cites (Izraelevitz et al.: ~81 ns local DRAM read
// vs 169 ns Optane).
func TestbedDDR4() DRAMModel {
	return DRAMModel{
		ReadMax:  105 * units.GBps,
		WriteMax: 82 * units.GBps,

		ScaleOps: 6,

		ReadPerFlowMax:  12 * units.GBps,
		WritePerFlowMax: 10 * units.GBps,

		ReadLatencyLocal:   81 * units.Nanosecond,
		ReadLatencyRemote:  138 * units.Nanosecond,
		WriteLatencyLocal:  86 * units.Nanosecond,
		WriteLatencyRemote: 105 * units.Nanosecond,
	}
}

// Validate reports whether the model's constants are self-consistent.
func (m DRAMModel) Validate() error {
	switch {
	case m.ReadMax <= 0 || m.WriteMax <= 0:
		return fmt.Errorf("pmem: dram peak bandwidths must be positive (read %g, write %g)", m.ReadMax, m.WriteMax)
	case m.ScaleOps <= 0:
		return fmt.Errorf("pmem: dram scale op count must be positive")
	case m.ReadPerFlowMax <= 0 || m.WritePerFlowMax <= 0:
		return fmt.Errorf("pmem: dram per-flow caps must be positive")
	case m.ReadLatencyLocal <= 0 || m.WriteLatencyLocal <= 0:
		return fmt.Errorf("pmem: dram latencies must be positive")
	case m.ReadLatencyRemote < m.ReadLatencyLocal || m.WriteLatencyRemote < m.WriteLatencyLocal:
		return fmt.Errorf("pmem: dram remote latency below local latency")
	}
	return nil
}

// ReadLatency returns the per-operation read setup latency.
func (m DRAMModel) ReadLatency(remote bool) float64 {
	if remote {
		return m.ReadLatencyRemote
	}
	return m.ReadLatencyLocal
}

// WriteLatency returns the per-operation write setup latency.
func (m DRAMModel) WriteLatency(remote bool) float64 {
	if remote {
		return m.WriteLatencyRemote
	}
	return m.WriteLatencyLocal
}

// DRAMDevice is one socket's DRAM exposed to the simulation kernel as a
// read port and a write port, mirroring Device for the PMEM tier. Both
// ports share one weighted census so read and write streams jointly
// approach the socket envelope, but there is no pressure EMA and no
// mixing penalty: DDR4 serves interleaved reads and writes without a
// device-internal cache to thrash.
type DRAMDevice struct {
	name  string
	model DRAMModel

	readFlows  []*sim.Flow
	writeFlows []*sim.Flow

	read  dramReadPort
	write dramWritePort
}

// NewDRAMDevice returns a DRAM device named name (e.g. "dram0") using
// the given model. It panics if the model fails validation, matching
// NewDevice: a tier with a nonsensical model would silently corrupt
// every experiment built on it.
func NewDRAMDevice(name string, model DRAMModel) *DRAMDevice {
	if err := model.Validate(); err != nil {
		panic(fmt.Sprintf("pmem: invalid dram model for device %q: %v", name, err))
	}
	d := &DRAMDevice{name: name, model: model}
	d.read.d = d
	d.write.d = d
	return d
}

// Name returns the device name.
func (d *DRAMDevice) Name() string { return d.name }

// Model returns the device's calibration constants.
func (d *DRAMDevice) Model() DRAMModel { return d.model }

// ReadPort returns the resource DRAM-tier read flows must traverse.
func (d *DRAMDevice) ReadPort() sim.Resource { return &d.read }

// WritePort returns the resource DRAM-tier write flows must traverse.
func (d *DRAMDevice) WritePort() sim.Resource { return &d.write }

// weights sums the duty-cycle-weighted read and write operation counts
// from the currently installed flows (re-read every call, like
// Device.load, so the kernel's fixed-point iteration sees up-to-date
// duty cycles).
func (d *DRAMDevice) weights() (reads, writes float64) {
	for _, f := range d.readFlows {
		reads += f.Weight
	}
	for _, f := range d.writeFlows {
		writes += f.Weight
	}
	return reads, writes
}

type dramReadPort struct{ d *DRAMDevice }

func (p *dramReadPort) Name() string { return p.d.name + ".read" }

func (p *dramReadPort) SetFlows(_ float64, flows []*sim.Flow) {
	p.d.readFlows = flows
}

func (p *dramReadPort) Evaluate() (float64, float64) {
	reads, writes := p.d.weights()
	cap := p.d.model.ReadMax * min(1, (reads+writes)/p.d.model.ScaleOps)
	return cap, p.d.model.ReadPerFlowMax
}

type dramWritePort struct{ d *DRAMDevice }

func (p *dramWritePort) Name() string { return p.d.name + ".write" }

func (p *dramWritePort) SetFlows(_ float64, flows []*sim.Flow) {
	p.d.writeFlows = flows
}

func (p *dramWritePort) Evaluate() (float64, float64) {
	reads, writes := p.d.weights()
	cap := p.d.model.WriteMax * min(1, (reads+writes)/p.d.model.ScaleOps)
	return cap, p.d.model.WritePerFlowMax
}

var (
	_ sim.Resource = (*dramReadPort)(nil)
	_ sim.Resource = (*dramWritePort)(nil)
)
