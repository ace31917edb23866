package pmem

import (
	"fmt"
	"math"

	"pmemsched/internal/sim"
)

// Device is one socket-attached PMEM module set exposed to the
// simulation kernel as two coupled resource ports. Flows classified as
// reads must be routed through ReadPort and writes through WritePort;
// both ports' capacities are computed from the combined weighted
// census, so read/write mixing and total-concurrency effects couple
// the ports the way the physical device couples them.
//
// The device additionally integrates a sustained-write-pressure EMA
// over simulated time (see the package comment) that deepens the
// remote-write penalty under continuous write load.
type Device struct {
	name  string
	model Model

	readFlows  []*sim.Flow
	writeFlows []*sim.Flow
	// readSmall[i] (writeSmall[i]) records whether readFlows[i]
	// (writeFlows[i]) is a sub-stripe access, classified once when the
	// flows are installed rather than on every census.
	readSmall  []bool
	writeSmall []bool

	pressure float64
	lastT    float64

	// terms holds the model's census-independent factors for the
	// installed flows and the current pressure; an install marks them
	// stale and the next evaluation rebuilds them.
	terms      terms
	termsStale bool

	read  readPort
	write writePort
}

// NewDevice returns a device named name (e.g. "pmem0") using the given
// model. It panics if the model fails validation: a device with a
// nonsensical model would silently corrupt every experiment built on
// it.
func NewDevice(name string, model Model) *Device {
	if err := model.Validate(); err != nil {
		panic(fmt.Sprintf("pmem: invalid model for device %q: %v", name, err))
	}
	d := &Device{name: name, model: model, termsStale: true}
	d.read.d = d
	d.write.d = d
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Model returns the device's calibration constants.
func (d *Device) Model() Model { return d.model }

// Pressure returns the current sustained-write-pressure EMA (0..1).
func (d *Device) Pressure() float64 { return d.pressure }

// ReadPort returns the resource read flows must traverse.
func (d *Device) ReadPort() sim.Resource { return &d.read }

// WritePort returns the resource write flows must traverse.
func (d *Device) WritePort() sim.Resource { return &d.write }

// advance integrates the write-pressure EMA up to simulated time now
// using the write occupancy that held since the last update.
func (d *Device) advance(now float64) {
	if now <= d.lastT {
		return
	}
	dt := now - d.lastT
	d.lastT = now
	occ := min(1, d.load().Writes()/d.model.WriteScaleOps)
	alpha := 1 - math.Exp(-dt/d.model.PressureTau)
	d.pressure += (occ - d.pressure) * alpha
}

// load computes the weighted census from the currently installed
// flows. Weights are re-read on every call so the kernel's fixed-point
// iteration sees up-to-date duty cycles.
func (d *Device) load() Load {
	var l Load
	l.RawReads = len(d.readFlows)
	l.RawWrites = len(d.writeFlows)
	var rs, ws int
	l.LocalReads, l.RemoteReads, l.SmallReads, rs = tally(d.readFlows, d.readSmall)
	l.LocalWrites, l.RemoteWrites, l.SmallWrites, ws = tally(d.writeFlows, d.writeSmall)
	l.RawSmall = rs + ws
	return l
}

// tally sums one port's flow weights by locality and by access size,
// in flow order, and counts its small flows.
func tally(flows []*sim.Flow, small []bool) (local, remote, smallW float64, rawSmall int) {
	for i, f := range flows {
		w := f.Weight
		if f.Class.Remote {
			remote += w
		} else {
			local += w
		}
		if small[i] {
			smallW += w
			rawSmall++
		}
	}
	return local, remote, smallW, rawSmall
}

// currentTerms returns the model's census-independent factors for the
// installed flows, rebuilding them after an install.
func (d *Device) currentTerms(l Load) *terms {
	if d.termsStale {
		d.terms = d.model.terms(l, d.pressure)
		d.termsStale = false
	}
	return &d.terms
}

// classify records, into dst's storage, whether each flow is a
// sub-stripe access.
func (d *Device) classify(dst []bool, flows []*sim.Flow) []bool {
	dst = dst[:0]
	for _, f := range flows {
		dst = append(dst, d.model.Small(f.Class.AccessSize))
	}
	return dst
}

type readPort struct{ d *Device }

func (p *readPort) Name() string { return p.d.name + ".read" }

func (p *readPort) SetFlows(now float64, flows []*sim.Flow) {
	// Integrate pressure over the interval that just ended, using the
	// occupancy that held during it, before installing the new flow set.
	p.d.advance(now)
	p.d.readFlows = flows
	p.d.readSmall = p.d.classify(p.d.readSmall, flows)
	p.d.termsStale = true
}

func (p *readPort) Evaluate() (float64, float64) {
	l := p.d.load()
	return p.d.model.readCap(l, p.d.currentTerms(l)), p.d.model.ReadPerFlowMax
}

type writePort struct{ d *Device }

func (p *writePort) Name() string { return p.d.name + ".write" }

func (p *writePort) SetFlows(now float64, flows []*sim.Flow) {
	p.d.advance(now)
	p.d.writeFlows = flows
	p.d.writeSmall = p.d.classify(p.d.writeSmall, flows)
	p.d.termsStale = true
}

func (p *writePort) Evaluate() (float64, float64) {
	l := p.d.load()
	return p.d.model.writeCap(l, p.d.currentTerms(l)), p.d.model.WritePerFlowMax
}

var (
	_ sim.Resource = (*readPort)(nil)
	_ sim.Resource = (*writePort)(nil)
)
