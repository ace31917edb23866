// Package pmem models an Intel Optane DC Persistent Memory device (the
// paper's hardware testbed, unavailable here) as a set of analytic
// bandwidth/latency curves driven by the fluid simulation kernel.
//
// Every constant is anchored in the paper (§II-B) or the measurement
// studies it cites (Yang et al. FAST'20, Izraelevitz et al.
// arXiv:1903.05714, Peng et al. MEMSYS'19):
//
//   - interleaved mode stripes 4 KB chunks across 6 DIMMs (24 KB stripe);
//   - local read bandwidth peaks at 39.4 GB/s and scales up to ~17
//     concurrent operations;
//   - local write bandwidth peaks at 13.9 GB/s and stops scaling beyond
//     4 concurrent operations, then degrades under contention for the
//     device-internal (XPBuffer) cache;
//   - remote (cross-NUMA) writes degrade far more than remote reads
//     (the paper measures a 15x raw-bandwidth drop at 24 concurrent
//     writers versus 1.3x for reads);
//   - idle write latency is 90 ns (ADR: a store completes once queued in
//     the iMC) versus 169 ns for reads, which must wait for the media;
//   - sub-stripe accesses from 6+ threads contend on individual DIMMs;
//   - mixed read/write streams defeat the XPBuffer's write combining and
//     fall well below the envelope of either pure workload.
//
// Two modeling decisions deserve explanation:
//
// Weighted concurrency. The census the capacity model sees counts each
// flow by its duty cycle on the device, not 1 per rank. A rank that
// spends most of each operation in the software stack (small objects
// through a filesystem) or in interleaved compute contributes only
// fractionally. This implements §VIII directly: "the actual level of
// concurrency experienced by PMEM is a complex function of the number
// of MPI ranks, software overhead ... and interleaving compute".
//
// Write pressure. The remote-write collapse deepens with *sustained*
// write load: the media's write credits and the XPBuffer drain between
// the bursty checkpoints of a compute-dominated simulation, but a
// pure-streaming workload keeps them exhausted. The device therefore
// tracks an exponential moving average of write-port occupancy and
// scales the remote-write penalty with it. This reconciles the paper's
// raw 15x figure (sustained microbenchmark) with the modest 6%
// placement effect it reports for the bursty GTC workflow at the same
// concurrency.
package pmem

import (
	"fmt"
	"math"

	"pmemsched/internal/units"
)

// Model holds the calibration constants for one PMEM device
// generation. The zero value is unusable; start from Gen1Optane.
type Model struct {
	// Peak aggregate bandwidths in interleaved mode, bytes/second.
	ReadMax  float64
	WriteMax float64

	// Concurrency scaling: reads scale linearly up to ReadScaleOps
	// effective concurrent operations; writes up to WriteScaleOps.
	ReadScaleOps  float64
	WriteScaleOps float64

	// WriteDecay is the per-extra-writer fractional loss of aggregate
	// write bandwidth beyond WriteScaleOps (XPBuffer eviction pressure
	// from more write streams than the buffer can coalesce).
	// WriteFloor bounds the loss.
	WriteDecay float64
	WriteFloor float64

	// Per-flow stream caps: one thread cannot exceed these even on an
	// idle device (media access pipelining limits).
	ReadPerFlowMax  float64
	WritePerFlowMax float64

	// Remote-access penalties. The aggregate bandwidth of W effective
	// concurrent remote writers divides by
	//
	//	1 + (RemoteWriteSlopeBase + RemoteWriteSlopePressure*gate(p)) * max(0, W-RemoteFreeOps) + quad terms
	//
	// where p ∈ [0,1] is the sustained-write-pressure EMA and gate is a
	// logistic knee: the collapse is threshold-like in sustained
	// pressure (the device's write credits and buffer drain fine below
	// a utilization knee and exhaust rapidly above it), so a bursty
	// checkpoint stream (GTC, p≈0.1) sees almost none of it while a
	// sustained small-object stream (miniAMR, p≈0.5) sees nearly all.
	// At full pressure and 24 writers the penalty approaches the
	// paper's raw measurement regime.
	RemoteFreeOps            float64
	RemoteWriteSlopeBase     float64
	RemoteWriteSlopePressure float64
	// Logistic gate parameters: the pressure knee's center and width.
	RemoteWritePressureKnee  float64
	RemoteWritePressureWidth float64
	// Saturating per-stream inefficiency: every remote write stream
	// pays UPI round-trip overheads that partially amortize once many
	// streams share the link; contributes SatSlope*W/(1+W/SatOps) to
	// the penalty, pressure-independent.
	RemoteWriteSatSlope float64
	RemoteWriteSatOps   float64
	// Quadratic terms sharpen the collapse as remote-write concurrency
	// grows (UPI/iMC queue saturation is threshold-like: the paper's
	// GTC workflow flips from read-priority placement at 16 ranks to
	// write-priority at 24, which a purely linear penalty cannot
	// produce at GTC's low write pressure).
	RemoteWriteQuadBase     float64
	RemoteWriteQuadPressure float64
	// Remote reads pay a factor growing from RemoteReadBase at one op
	// to RemoteReadMaxPenalty at RemoteReadRampOps effective concurrent
	// remote reads (interconnect queueing grows quickly with reader
	// concurrency; an analytics kernel whose compute interleaves
	// between reads keeps its effective read concurrency — and thus
	// this penalty — low, which is what lets placement favor the
	// simulation, §VI-C/§VIII).
	RemoteReadBase       float64
	RemoteReadMaxPenalty float64
	RemoteReadRampOps    float64
	// RemoteReadLatQueue is the per-operation remote-read latency added
	// per effective concurrent remote reader (UPI/iMC queueing): a
	// dense read stream of W_eff readers waits ~W_eff*RemoteReadLatQueue
	// longer per access than an isolated one. An analytics kernel whose
	// compute interleaves between reads keeps its effective read
	// concurrency — and so this queueing — low.
	RemoteReadLatQueue float64

	// Remote-read drag models the back-pressure concurrent remote reads
	// exert on co-running writes ("the remote reads hold resources that
	// also slow writes", §VI-A): the write capacity divides by
	//
	//	1 + (RemoteReadDragBase + RemoteReadDragPressure*pressure) * W_remote_reads
	//
	// deepening, like the remote-write collapse, under sustained write
	// pressure.
	RemoteReadDragBase     float64
	RemoteReadDragPressure float64

	// MixPenalty is the peak fractional bandwidth loss when reads and
	// writes share the device (maximal at a 50/50 effective mix);
	// SmallMixBoost adds to it in proportion to the small-access
	// fraction (sub-stripe mixed traffic thrashes the XPBuffer
	// hardest). The penalty ramps up with the raw access-stream count,
	// from nothing at MixOnsetOps to full strength at MixFullOps: a few
	// interleaved streams coexist in the XPBuffer, many defeat its
	// write combining ("at low concurrency levels the slowdown caused
	// due to contention is minimal", §VIII). It additionally scales
	// with sustained write pressure — bursty checkpoint traffic lets
	// the XPBuffer drain between mixes — bottoming at MixPressureFloor
	// of its full strength at zero pressure. MixFloor bounds the loss.
	MixPenalty       float64
	SmallMixBoost    float64
	MixOnsetOps      int
	MixFullOps       int
	MixPressureFloor float64
	MixFloor         float64

	// XPThrashOps is the raw access-stream count beyond which
	// internal-cache thrash degrades everything; XPThrashSlope is the
	// per-extra-stream fractional loss.
	XPThrashOps   int
	XPThrashSlope float64

	// Small-access DIMM contention: accesses below SmallAccessBytes
	// land on single DIMMs (sub-stripe) and beyond SmallContendOps raw
	// concurrent small streams suffer DimmSlope per-stream loss.
	SmallAccessBytes int64
	SmallContendOps  int
	DimmSlope        float64

	// PressureTau is the time constant, in seconds, of the
	// write-pressure EMA.
	PressureTau float64

	// Idle per-operation latencies, seconds.
	ReadLatencyLocal   float64
	ReadLatencyRemote  float64
	WriteLatencyLocal  float64
	WriteLatencyRemote float64

	// Interleaving geometry (used by the stack layer for access-size
	// classification and by characterization output).
	DIMMs       int
	ChunkBytes  int64
	StripeBytes int64
}

// Gen1Optane returns the calibration for the paper's testbed: first
// generation 512 GB Optane DIMMs, 6 per socket, App-Direct interleaved.
func Gen1Optane() Model {
	return Model{
		ReadMax:       39.4 * units.GBps,
		WriteMax:      13.9 * units.GBps,
		ReadScaleOps:  17,
		WriteScaleOps: 4,
		WriteDecay:    0.0054,
		WriteFloor:    0.70,

		ReadPerFlowMax:  2.9 * units.GBps,
		WritePerFlowMax: 3.5 * units.GBps,

		RemoteFreeOps:            1.8645,
		RemoteWritePressureKnee:  0.59272,
		RemoteWritePressureWidth: 0.10,
		RemoteWriteSatSlope:      0,
		RemoteWriteSatOps:        1.0,
		RemoteWriteSlopeBase:     0,
		RemoteWriteSlopePressure: 0.11662,
		RemoteWriteQuadBase:      0.000568,
		RemoteWriteQuadPressure:  0.001044,
		RemoteReadBase:           1.0,
		RemoteReadMaxPenalty:     1.19575,
		RemoteReadRampOps:        15.888,
		RemoteReadLatQueue:       28 * units.Nanosecond,
		RemoteReadDragBase:       0.03686,
		RemoteReadDragPressure:   0.1049,

		MixPenalty:       0.65,
		SmallMixBoost:    0.1715,
		MixOnsetOps:      4,
		MixFullOps:       19,
		MixPressureFloor: 0.5183,
		MixFloor:         0.20,

		XPThrashOps:   12,
		XPThrashSlope: 0.02658,

		SmallAccessBytes: 16 * units.KiB,
		SmallContendOps:  6,
		DimmSlope:        0.0076,

		PressureTau: 3.313,

		ReadLatencyLocal:   169 * units.Nanosecond,
		ReadLatencyRemote:  320 * units.Nanosecond,
		WriteLatencyLocal:  90 * units.Nanosecond,
		WriteLatencyRemote: 110 * units.Nanosecond,

		DIMMs:       6,
		ChunkBytes:  4 * units.KiB,
		StripeBytes: 24 * units.KiB,
	}
}

// Validate reports whether the model's constants are self-consistent.
func (m Model) Validate() error {
	switch {
	case m.ReadMax <= 0 || m.WriteMax <= 0:
		return fmt.Errorf("pmem: peak bandwidths must be positive (read %g, write %g)", m.ReadMax, m.WriteMax)
	case m.ReadScaleOps <= 0 || m.WriteScaleOps <= 0:
		return fmt.Errorf("pmem: scale op counts must be positive")
	case m.ReadPerFlowMax <= 0 || m.WritePerFlowMax <= 0:
		return fmt.Errorf("pmem: per-flow caps must be positive")
	case m.WriteFloor <= 0 || m.WriteFloor > 1:
		return fmt.Errorf("pmem: write floor %g outside (0,1]", m.WriteFloor)
	case m.MixPenalty < 0 || m.MixPenalty+m.SmallMixBoost >= 1:
		return fmt.Errorf("pmem: mix penalty %g + small boost %g outside [0,1)", m.MixPenalty, m.SmallMixBoost)
	case m.MixFloor <= 0 || m.MixFloor > 1:
		return fmt.Errorf("pmem: mix floor %g outside (0,1]", m.MixFloor)
	case m.MixFullOps <= m.MixOnsetOps:
		return fmt.Errorf("pmem: mix ramp [%d,%d] inverted", m.MixOnsetOps, m.MixFullOps)
	case m.RemoteReadMaxPenalty < m.RemoteReadBase || m.RemoteReadBase < 1:
		return fmt.Errorf("pmem: remote read penalty range invalid")
	case m.RemoteReadRampOps <= 1:
		return fmt.Errorf("pmem: remote read ramp %g must exceed one op", m.RemoteReadRampOps)
	case m.RemoteWriteSlopeBase < 0 || m.RemoteWriteSlopePressure < 0 || m.RemoteReadDragBase < 0 || m.RemoteReadDragPressure < 0:
		return fmt.Errorf("pmem: remote write slopes and read drag must be non-negative")
	case m.RemoteWriteQuadBase < 0 || m.RemoteWriteQuadPressure < 0:
		return fmt.Errorf("pmem: remote write quadratic terms must be non-negative")
	case m.MixPressureFloor < 0 || m.MixPressureFloor > 1:
		return fmt.Errorf("pmem: mix pressure floor %g outside [0,1]", m.MixPressureFloor)
	case m.RemoteWritePressureWidth <= 0:
		return fmt.Errorf("pmem: pressure knee width must be positive")
	case m.RemoteWriteSatSlope < 0 || m.RemoteWriteSatOps < 0 || m.RemoteReadLatQueue < 0:
		return fmt.Errorf("pmem: saturating/queueing remote terms must be non-negative")
	case m.PressureTau <= 0:
		return fmt.Errorf("pmem: pressure time constant must be positive")
	case m.ReadLatencyLocal <= 0 || m.WriteLatencyLocal <= 0:
		return fmt.Errorf("pmem: latencies must be positive")
	case m.ReadLatencyRemote < m.ReadLatencyLocal || m.WriteLatencyRemote < m.WriteLatencyLocal:
		return fmt.Errorf("pmem: remote latency below local latency")
	case m.DIMMs <= 0 || m.ChunkBytes <= 0:
		return fmt.Errorf("pmem: interleave geometry must be positive")
	}
	return nil
}

// Load is the census of concurrent operations the capacity model
// evaluates. Bandwidth-scaling terms use duty-cycle-weighted counts: a
// rank that spends most of each operation in the software stack
// contributes only fractionally to bandwidth demand. Cache-contention
// terms (XPBuffer thrash, per-DIMM small-access contention, read/write
// mixing) use raw thread counts: every concurrently active access
// stream perturbs the device-internal cache regardless of its duty
// cycle — which is why the paper finds serial execution helps the 2 KB
// workflow at 24 threads even though bandwidth is not constrained.
type Load struct {
	// Duty-cycle-weighted effective operation counts.
	LocalReads   float64
	RemoteReads  float64
	LocalWrites  float64
	RemoteWrites float64
	SmallReads   float64
	SmallWrites  float64
	// Raw concurrent access-stream counts.
	RawReads  int
	RawWrites int
	RawSmall  int
}

// Reads returns the effective concurrent read operations.
func (l Load) Reads() float64 { return l.LocalReads + l.RemoteReads }

// Writes returns the effective concurrent write operations.
func (l Load) Writes() float64 { return l.LocalWrites + l.RemoteWrites }

// Total returns the effective total concurrent operations.
func (l Load) Total() float64 { return l.Reads() + l.Writes() }

// RawTotal returns the raw concurrent access-stream count.
func (l Load) RawTotal() int { return l.RawReads + l.RawWrites }

// Caps is the aggregate capacity the device offers the current load.
type Caps struct {
	Read  float64 // bytes/second shared by all read flows
	Write float64 // bytes/second shared by all write flows
}

// Caps evaluates the capacity model for a weighted load census at the
// given sustained-write pressure (0..1).
//
// The hot methods take a pointer receiver: the kernel evaluates the
// model once per flow, path resource and fixed-point sweep, and a value
// receiver would copy the whole calibration on every call.
func (m *Model) Caps(l Load, pressure float64) Caps {
	t := m.terms(l, pressure)
	shared := m.sharedEfficiency(l, &t)
	return Caps{Read: m.readSide(l) * shared, Write: m.writeSide(l, &t) * shared}
}

// terms are the capacity model's census-independent factors: those
// that depend only on the sustained-write pressure and on the raw
// stream counts. A Device changes both only when it installs flows, so
// it builds its terms once per install; Caps and RemoteWritePenalty
// build them per call. Both paths then run the same arithmetic, so
// they agree bit for bit.
type terms struct {
	dragSlope float64 // write-capacity drag per effective remote reader
	penSlope  float64 // remote-write penalty's gated linear slope
	penQuad   float64 // remote-write penalty's quadratic coefficient
	mixRamp   float64 // mixing penalty's ramp in the raw stream count (0: below the onset)
	mixScale  float64 // mixing penalty's sustained-pressure scale
	thrash    float64 // XPBuffer-thrash divisor (exactly 1: none)
	dimm      float64 // per-DIMM contention divisor (exactly 1: none)
}

// terms builds the factors for a load's raw stream counts (its weighted
// counts are not read) at the given sustained-write pressure.
func (m *Model) terms(l Load, pressure float64) terms {
	p := clamp01(pressure)
	// The remote-write penalty's linear term is gated by the pressure
	// knee (see the field comment); its quadratic term is mostly
	// pressure-independent: UPI/iMC queue saturation kicks in from
	// remote-writer concurrency alone, which is what flips GTC's
	// preferred placement between 16 and 24 ranks.
	gate := 1 / (1 + math.Exp(-(p-m.RemoteWritePressureKnee)/m.RemoteWritePressureWidth))
	t := terms{
		dragSlope: m.RemoteReadDragBase + m.RemoteReadDragPressure*p,
		penSlope:  m.RemoteWriteSlopeBase + m.RemoteWriteSlopePressure*gate,
		penQuad:   m.RemoteWriteQuadBase + m.RemoteWriteQuadPressure*p,
		mixScale:  m.MixPressureFloor + (1-m.MixPressureFloor)*p,
		thrash:    1,
		dimm:      1,
	}
	raw := l.RawTotal()
	if raw > m.MixOnsetOps {
		t.mixRamp = min(1, float64(raw-m.MixOnsetOps)/float64(m.MixFullOps-m.MixOnsetOps))
	}
	if raw > m.XPThrashOps {
		t.thrash = 1 + m.XPThrashSlope*float64(raw-m.XPThrashOps)
	}
	if l.RawSmall > 0 && raw >= m.SmallContendOps {
		frac := float64(l.RawSmall) / float64(raw)
		t.dimm = 1 + m.DimmSlope*float64(raw-m.SmallContendOps+1)*frac
	}
	return t
}

// readCap is Caps(l, pressure).Read, bit for bit, for t built from l
// and pressure, without evaluating the write side.
func (m *Model) readCap(l Load, t *terms) float64 {
	return m.readSide(l) * m.sharedEfficiency(l, t)
}

// writeCap is Caps(l, pressure).Write, bit for bit, for t built from l
// and pressure, without evaluating the read side.
func (m *Model) writeCap(l Load, t *terms) float64 {
	return m.writeSide(l, t) * m.sharedEfficiency(l, t)
}

// readSide is the read aggregate before the whole-device factors: zero
// when nothing reads.
func (m *Model) readSide(l Load) float64 {
	if l.Reads() > 0 {
		return m.readAggregate(l)
	}
	return 0
}

// writeSide is the write aggregate before the whole-device factors:
// zero when nothing writes.
func (m *Model) writeSide(l Load, t *terms) float64 {
	if l.Writes() > 0 {
		return m.writeAggregate(l, t)
	}
	return 0
}

// readAggregate: linear scaling to ReadScaleOps, remote penalty folded
// in proportionally to the remote share.
func (m *Model) readAggregate(l Load) float64 {
	n := l.Reads()
	base := m.ReadMax * min(1, n/m.ReadScaleOps)
	pen := m.remoteReadPenalty(l.RemoteReads)
	return base * (l.LocalReads + l.RemoteReads/pen) / n
}

func (m *Model) remoteReadPenalty(w float64) float64 {
	if w <= 0 {
		return 1
	}
	span := m.RemoteReadMaxPenalty - m.RemoteReadBase
	ramp := m.RemoteReadRampOps - 1
	if ramp < 1 {
		ramp = 1
	}
	frac := min(1, max(0, w-1)/ramp)
	return m.RemoteReadBase + span*frac
}

// writeAggregate: linear scaling to WriteScaleOps, then a gentle decay
// (XPBuffer eviction) with more write streams; remote writers collapse
// per the pressure-scaled penalty, blended by population.
func (m *Model) writeAggregate(l Load, t *terms) float64 {
	n := l.Writes()
	scale := min(1, n/m.WriteScaleOps)
	if n > m.WriteScaleOps {
		decay := 1 - m.WriteDecay*(n-m.WriteScaleOps)
		scale = max(m.WriteFloor, decay)
	}
	base := m.WriteMax * scale
	// Remote reads in flight hold UPI and iMC resources that back-press
	// the write path; the drag deepens under sustained write pressure.
	if drag := 1 + t.dragSlope*l.RemoteReads; drag != 1 {
		base /= drag
	}
	pen := m.remoteWritePenalty(l.RemoteWrites, t)
	return base * (l.LocalWrites + l.RemoteWrites/pen) / n
}

// RemoteWritePenalty returns the aggregate-bandwidth division factor
// for w effective concurrent remote writers at the given sustained
// pressure. Exported for characterization output and ablation tests.
func (m *Model) RemoteWritePenalty(w, pressure float64) float64 {
	t := m.terms(Load{}, pressure)
	return m.remoteWritePenalty(w, &t)
}

// remoteWritePenalty is RemoteWritePenalty at the pressure t was built
// for.
func (m *Model) remoteWritePenalty(w float64, t *terms) float64 {
	if w <= 0 {
		return 1
	}
	pen := 1.0
	if m.RemoteWriteSatOps > 0 {
		pen += m.RemoteWriteSatSlope * w / (1 + w/m.RemoteWriteSatOps)
	}
	x := w - m.RemoteFreeOps
	if x > 0 {
		pen += t.penSlope*x + t.penQuad*x*x
	}
	return pen
}

// sharedEfficiency applies the whole-device factors: read/write mixing,
// XPBuffer thrash at high raw concurrency, and single-DIMM contention
// from small accesses. The volume mix (how deep the mixing penalty
// cuts at its peak) uses weighted counts; the contention triggers use
// raw stream counts (see Load), so they live in t.
func (m *Model) sharedEfficiency(l Load, t *terms) float64 {
	n := l.Total()
	if n <= 0 || l.RawTotal() <= 0 {
		return 1
	}
	eff := 1.0
	// Mixing: peak loss at a 50/50 effective read/write split, deepened
	// by sub-stripe traffic, ramping in with raw stream count.
	if t.mixRamp > 0 && l.Reads() > 0 && l.Writes() > 0 {
		wf := l.Writes() / n
		smallFrac := (l.SmallReads + l.SmallWrites) / n
		penalty := (m.MixPenalty + m.SmallMixBoost*smallFrac) * t.mixRamp * t.mixScale
		e := 1 - penalty*4*wf*(1-wf)
		eff *= max(m.MixFloor, e)
	}
	// Internal-cache thrash beyond XPThrashOps raw streams, and per-DIMM
	// contention from sub-stripe accesses from many threads. A divisor
	// of exactly 1 leaves eff unchanged, so it is skipped.
	if t.thrash != 1 {
		eff /= t.thrash
	}
	if t.dimm != 1 {
		eff /= t.dimm
	}
	return eff
}

// ReadLatency returns the per-operation read setup latency.
func (m Model) ReadLatency(remote bool) float64 {
	if remote {
		return m.ReadLatencyRemote
	}
	return m.ReadLatencyLocal
}

// WriteLatency returns the per-operation write setup latency. Writes
// complete once queued at the (possibly remote) iMC, hence the much
// lower figure than reads.
func (m Model) WriteLatency(remote bool) float64 {
	if remote {
		return m.WriteLatencyRemote
	}
	return m.WriteLatencyLocal
}

// Small reports whether an access of the given size is sub-stripe
// ("small") for DIMM-contention purposes.
func (m *Model) Small(accessBytes int64) bool { return accessBytes < m.SmallAccessBytes }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Gen2Optane returns a calibration for second-generation Optane
// persistent memory (the 200 series, "Barlow Pass", contemporary with
// the paper's publication): roughly a third more bandwidth per module
// across the board, a slightly deeper write-combining buffer, and the
// same media latencies. Used by the rule-robustness experiment to ask
// whether Table II's recommendations survive a device generation —
// none of the paper's qualitative trade-offs depend on Gen-1's exact
// peaks, so they should.
func Gen2Optane() Model {
	m := Gen1Optane()
	m.ReadMax *= 1.32  // ~52 GB/s aggregate interleaved read
	m.WriteMax *= 1.33 // ~18.5 GB/s aggregate interleaved write
	m.ReadPerFlowMax *= 1.25
	m.WritePerFlowMax *= 1.25
	m.WriteScaleOps = 5    // deeper write combining
	m.XPThrashOps += 4     // larger device-internal cache
	m.SmallContendOps += 2 // same interleave geometry, more headroom
	return m
}
