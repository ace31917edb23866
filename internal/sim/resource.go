package sim

import "math"

// Resource is a shared bandwidth pool. On every rate recomputation the
// kernel hands each resource the flows currently routed through it
// (SetFlows), then runs a small fixed-point iteration in which it
// repeatedly asks for the resource's current capacity (Evaluate) and
// updates flow rates and duty-cycle weights.
//
// Evaluate may inspect the flows' Weight values — the fraction of time
// each flow actually occupies the device once its per-operation
// software cost is accounted for. This is how "high software stack I/O
// overheads lower PMEM contention" (paper §VIII) enters the model: a
// rank that spends most of each operation in the software stack
// contributes only fractionally to the device's effective concurrency.
type Resource interface {
	// Name identifies the resource in traces and error messages.
	Name() string
	// SetFlows installs the flows currently routed through this
	// resource. Called once per rate round; an empty slice clears a
	// previously installed set. The kernel keeps the slice installed
	// last round, and the flows in it (their Class and Weight), unmodified
	// until the SetFlows call that replaces it returns, so an
	// implementation may read the outgoing census there (the PMEM
	// device integrates its write pressure over it). The slice must not
	// be retained past that call: the kernel reuses its storage.
	SetFlows(now float64, flows []*Flow)
	// Evaluate returns the aggregate capacity (bytes/second) available
	// to the installed flows and the per-flow stream cap (use
	// math.Inf(1) for none). The result must depend only on the Class
	// and Weight of the installed flows (a device's read and write
	// ports may share one census) and on state fixed at SetFlows.
	// Called one or more times per round as the fixed point iterates;
	// an implementation must re-read the weights on each call, and the
	// kernel may reuse a result for as long as no flow's weight changes.
	Evaluate() (capacity, perFlow float64)
}

// Flow is an in-progress transfer: the kernel's view of a Transfer
// stage. Resource models read Class and Weight; the kernel manages the
// rest.
type Flow struct {
	Class FlowClass
	// Weight is the flow's duty cycle on its path resources: 1 for a
	// pure stream, less when per-operation software cost keeps the
	// issuing core busy between device accesses. Maintained by the
	// kernel's fixed-point iteration.
	Weight float64

	opBytes   float64 // payload bytes per operation (0: pure stream)
	perOp     float64 // software seconds per operation
	path      []Resource
	remaining float64 // payload bytes left
	rate      float64 // payload bytes/second (includes software throttling)
	device    float64 // device-allocated bytes/second while on-device
	proc      *Proc
}

// Remaining returns the payload bytes not yet transferred.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the current payload rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// DeviceRate returns the device-allocated rate while the flow occupies
// the device.
func (f *Flow) DeviceRate() float64 { return f.device }

// FixedResource is a Resource with a constant aggregate capacity and no
// per-flow cap (e.g. a DRAM channel or interconnect link).
type FixedResource struct {
	name string
	cap  float64
}

// NewFixedResource returns a resource with the given constant capacity
// in bytes/second.
func NewFixedResource(name string, capacity float64) *FixedResource {
	return &FixedResource{name: name, cap: capacity}
}

// Name implements Resource.
func (r *FixedResource) Name() string { return r.name }

// Capacity returns the constant aggregate capacity in bytes/second
// (used by environment fingerprinting to identify a topology).
func (r *FixedResource) Capacity() float64 { return r.cap }

// SetFlows implements Resource.
func (r *FixedResource) SetFlows(float64, []*Flow) {}

// Evaluate implements Resource.
func (r *FixedResource) Evaluate() (float64, float64) { return r.cap, math.Inf(1) }

// minRate is the floor applied to computed flow rates so a
// mis-calibrated capacity model (zero or negative capacity under load)
// degrades to an extremely slow transfer instead of a stalled
// simulation.
const minRate = 1.0 // bytes/second
