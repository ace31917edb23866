package cluster

import (
	"fmt"
	"math"

	"pmemsched/internal/core"
	"pmemsched/internal/pmem"
	"pmemsched/internal/workflow"
)

// Cross-job PMEM interference on shared nodes.
//
// The paper's central finding is that PMEM bandwidth collapses under
// concurrent access; the single-node cost model captures that *within*
// a job (between its simulation and analytics components). This file
// extends it *across* jobs sharing a node: each job carries an
// I/O-intensity profile derived from its memoized standalone run, each
// node's sockets carry PMEM bandwidth budgets from the device curves,
// and when the combined demand on a socket exceeds its budget, every
// job streaming through that socket's PMEM progresses more slowly — a
// fluid approximation of the §VI contention measurements, applied at
// cluster scale the way SIM-SITU applies contention-aware progress
// models to in-situ workflows.

// JobProfile is one job's PMEM demand under its chosen configuration,
// derived from the memoized core.Result phase breakdown: how much of
// the standalone runtime the job spends streaming through PMEM, the
// bytes it moves per second of runtime, and which socket's PMEM holds
// its channel.
type JobProfile struct {
	// IOFraction is the fraction of the job's standalone runtime spent
	// in device transfer (writer + reader per-rank mean I/O time over
	// total runtime), clamped to [0, 1]. Only this fraction of the
	// job's execution dilates under cross-job contention; the compute
	// fraction is unaffected.
	IOFraction float64
	// ReadBytesPerSecond and WriteBytesPerSecond are the job's mean
	// bandwidth demands on its channel's PMEM, averaged over the
	// standalone runtime. The analytics component reads exactly the
	// bytes the simulation writes, so both demands move the same total
	// volume.
	ReadBytesPerSecond  float64
	WriteBytesPerSecond float64
	// DRAMReadBytesPerSecond and DRAMWriteBytesPerSecond are the demand
	// the job's tier policy routes through socket DRAM instead of PMEM
	// (zero for pmem-only jobs). They count against the model's DRAM
	// budgets when those are set and are exempt otherwise.
	DRAMReadBytesPerSecond  float64
	DRAMWriteBytesPerSecond float64
	// MigratedBytes is the one-time tier migration volume (hot-promote's
	// bulk copy), recorded for observability; it is not folded into the
	// steady-state demands.
	MigratedBytes float64
	// DeviceSocket is the socket whose PMEM holds the job's streaming
	// channel (0 for LocW placements, 1 for LocR in the canonical
	// two-socket deployment). Jobs with channels on different sockets
	// of the same node do not contend.
	DeviceSocket int
}

// ProfileFromResult derives the job profile from a memoized standalone
// result: total snapshot volume over runtime gives the mean demand, the
// phase breakdown gives the I/O duty cycle, and the configuration's
// deployment names the device socket.
func ProfileFromResult(wf workflow.Spec, cfg core.Config, res core.Result) JobProfile {
	return profileFromResult(&wf, cfg, &res)
}

// profileFromResult is ProfileFromResult reading the spec and the
// result through pointers, for the estimator's per-ask path.
func profileFromResult(wf *workflow.Spec, cfg core.Config, res *core.Result) JobProfile {
	p := JobProfile{DeviceSocket: int(cfg.Deployment().DeviceSocket)}
	if res.TotalSeconds <= 0 {
		return p
	}
	bytes := float64(wf.Simulation.BytesPerRank()) * float64(wf.Ranks) * float64(wf.Iterations)
	demand := bytes / res.TotalSeconds
	p.WriteBytesPerSecond = demand
	p.ReadBytesPerSecond = demand
	p.IOFraction = clampUnit((res.Writer.IO + res.Reader.IO + res.Drain.IO) / res.TotalSeconds)
	if !wf.Tier.Enabled() {
		return p
	}
	switch wf.Tier.Policy {
	case workflow.TierWriteStageDrain:
		// Every byte stages into DRAM (writer) and back out (drain
		// source), while the drain sink and the analytics reads keep the
		// full PMEM demand: staging adds DRAM traffic, it does not remove
		// PMEM traffic.
		p.DRAMWriteBytesPerSecond = demand
		p.DRAMReadBytesPerSecond = demand
	case workflow.TierDRAMFirstSpill, workflow.TierHotPromote:
		frac := tierResidentFraction(*wf)
		if wf.Tier.Policy == workflow.TierHotPromote {
			frac *= hotFraction(*wf)
			p.MigratedBytes = float64(wf.TierMigratedBytes())
		}
		p.DRAMReadBytesPerSecond = frac * demand
		p.DRAMWriteBytesPerSecond = frac * demand
		p.ReadBytesPerSecond = (1 - frac) * demand
		p.WriteBytesPerSecond = (1 - frac) * demand
	}
	return p
}

// tierResidentFraction is the fraction of each snapshot the tier policy
// keeps DRAM-resident: the policy's per-rank residency (demand over the
// double-buffer factor and the rank count) over the per-rank volume.
func tierResidentFraction(wf workflow.Spec) float64 {
	per := wf.Simulation.BytesPerRank()
	if per <= 0 || wf.Ranks <= 0 {
		return 0
	}
	resident := float64(wf.TierDRAMBytes()) / (2 * float64(wf.Ranks))
	return clampUnit(resident / float64(per))
}

// hotFraction is the fraction of hot-promote's iterations that run
// after the promotion threshold (zero when promotion never fires).
func hotFraction(wf workflow.Spec) float64 {
	after := wf.Tier.PromoteAfterIterations
	if after == 0 {
		after = workflow.DefaultTierPromoteAfterIterations
	}
	if wf.Iterations <= 0 || after >= wf.Iterations {
		return 0
	}
	return float64(wf.Iterations-after) / float64(wf.Iterations)
}

// Interference configures the shared-node contention model. The zero
// value disables it, in which case the engine reproduces the original
// fixed-duration semantics byte for byte.
type Interference struct {
	// Enabled turns the model on.
	Enabled bool
	// ReadBandwidthPerSocket and WriteBandwidthPerSocket are each
	// socket's PMEM budgets in bytes/second. Demand beyond a budget
	// dilates the I/O fraction of every job streaming through that
	// socket proportionally.
	ReadBandwidthPerSocket  float64
	WriteBandwidthPerSocket float64
	// DRAMReadBandwidthPerSocket and DRAMWriteBandwidthPerSocket budget
	// the demand tiered jobs route through socket DRAM. Zero (the
	// default) exempts DRAM demand from the model entirely — existing
	// configurations behave byte-identically — while TieredInterference
	// sets them from the testbed DDR4 envelope.
	DRAMReadBandwidthPerSocket  float64
	DRAMWriteBandwidthPerSocket float64
}

// DefaultInterference returns the model parameterized by the Gen-1
// Optane curves: per-socket budgets at the device's peak interleaved
// read and write bandwidths. Budgets are deliberately the *peaks* —
// each job's standalone runtime already pays its own within-job
// contention, so the cross-job model only charges for demand the
// device cannot serve even at its best.
func DefaultInterference() Interference {
	m := pmem.Gen1Optane()
	return Interference{
		Enabled:                 true,
		ReadBandwidthPerSocket:  m.ReadMax,
		WriteBandwidthPerSocket: m.WriteMax,
	}
}

func (iv Interference) validate() error {
	if !iv.Enabled {
		return nil
	}
	if iv.ReadBandwidthPerSocket <= 0 || iv.WriteBandwidthPerSocket <= 0 {
		return fmt.Errorf("cluster: interference model needs positive per-socket bandwidth budgets (read %g, write %g)",
			iv.ReadBandwidthPerSocket, iv.WriteBandwidthPerSocket)
	}
	if iv.DRAMReadBandwidthPerSocket < 0 || iv.DRAMWriteBandwidthPerSocket < 0 {
		return fmt.Errorf("cluster: interference DRAM budgets must be non-negative (read %g, write %g)",
			iv.DRAMReadBandwidthPerSocket, iv.DRAMWriteBandwidthPerSocket)
	}
	return nil
}

// TieredInterference extends DefaultInterference with DRAM budgets
// from the testbed's DDR4 envelope, so jobs whose tier policies stage
// or pin data in socket DRAM contend for it the same way PMEM demand
// contends for the Optane envelope.
func TieredInterference() Interference {
	iv := DefaultInterference()
	d := pmem.TestbedDDR4()
	iv.DRAMReadBandwidthPerSocket = d.ReadMax
	iv.DRAMWriteBandwidthPerSocket = d.WriteMax
	return iv
}

// overloadFactor returns how far the socket's combined demand exceeds
// its budgets (>= 1): the factor by which I/O through that socket's
// PMEM dilates. Reads and writes are budgeted independently — the
// device serves them from different envelopes — and the binding one
// governs, since the streaming channel advances at the slower side.
func (iv Interference) overloadFactor(read, write float64) float64 {
	f := 1.0
	if r := read / iv.ReadBandwidthPerSocket; r > f {
		f = r
	}
	if w := write / iv.WriteBandwidthPerSocket; w > f {
		f = w
	}
	return f
}

// overloadAll is overloadFactor across both tiers: the PMEM envelope
// plus, when the DRAM budgets are set, the DRAM envelope. A zero DRAM
// budget exempts that side entirely, so untiered models compute the
// exact same factor as before.
func (iv Interference) overloadAll(read, write, dramRead, dramWrite float64) float64 {
	f := iv.overloadFactor(read, write)
	if iv.DRAMReadBandwidthPerSocket > 0 {
		if r := dramRead / iv.DRAMReadBandwidthPerSocket; r > f {
			f = r
		}
	}
	if iv.DRAMWriteBandwidthPerSocket > 0 {
		if w := dramWrite / iv.DRAMWriteBandwidthPerSocket; w > f {
			f = w
		}
	}
	return f
}

// regularDemand reports whether all four of the profile's bandwidth
// demands are finite and non-negative. Only then does adding the job
// to a socket never lower that socket's overload factor.
func (p JobProfile) regularDemand() bool {
	for _, d := range [...]float64{p.ReadBytesPerSecond, p.WriteBytesPerSecond, p.DRAMReadBytesPerSecond, p.DRAMWriteBytesPerSecond} {
		if !(d >= 0 && d <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// rate returns the job's progress rate in standalone-seconds per wall
// second given its socket's overload factor: the compute fraction runs
// at full speed, the I/O fraction dilates by the factor.
func (iv Interference) rate(p JobProfile, factor float64) float64 {
	if factor <= 1 || p.IOFraction <= 0 {
		return 1
	}
	return 1 / ((1 - p.IOFraction) + p.IOFraction*factor)
}

// socketDemand sums the resident jobs' demand on one socket's PMEM.
func (n *NodeView) socketDemand(socket int) (read, write float64) {
	for _, r := range n.Running {
		if r.Profile.DeviceSocket == socket {
			read += r.Profile.ReadBytesPerSecond
			write += r.Profile.WriteBytesPerSecond
		}
	}
	return read, write
}

// socketDRAMDemand sums the resident jobs' tier demand on one socket's
// DRAM.
func (n *NodeView) socketDRAMDemand(socket int) (read, write float64) {
	for _, r := range n.Running {
		if r.Profile.DeviceSocket == socket {
			read += r.Profile.DRAMReadBytesPerSecond
			write += r.Profile.DRAMWriteBytesPerSecond
		}
	}
	return read, write
}

// OverloadAfter returns the overload factor the job's device socket
// would reach if the job joined the node's residents: the score the
// interference-aware policies minimize when several nodes fit.
func (n *NodeView) OverloadAfter(iv Interference, p JobProfile) float64 {
	read, write := n.socketDemand(p.DeviceSocket)
	dread, dwrite := n.socketDRAMDemand(p.DeviceSocket)
	return iv.overloadAll(read+p.ReadBytesPerSecond, write+p.WriteBytesPerSecond,
		dread+p.DRAMReadBytesPerSecond, dwrite+p.DRAMWriteBytesPerSecond)
}

// rateOn returns the current progress rate of a resident profile on the
// node under the model.
func (n *NodeView) rateOn(iv Interference, p JobProfile) float64 {
	read, write := n.socketDemand(p.DeviceSocket)
	dread, dwrite := n.socketDRAMDemand(p.DeviceSocket)
	return iv.rate(p, iv.overloadAll(read, write, dread, dwrite))
}

// socketRates returns a per-profile rate function that computes each
// socket's demand and overload factor at most once per node instead of
// once per resident — rateOn is O(residents) per call, so reflowing a
// whole node through it is O(residents²). The cached factor feeds the
// same overloadFactor/rate arithmetic as rateOn, so the returned rates
// are bit-identical to per-resident rateOn calls; the caller must not
// change the residency set between calls.
func (n *NodeView) socketRates(iv Interference) func(p JobProfile) float64 {
	cached := [2]struct {
		socket int
		factor float64
	}{{socket: -1}, {socket: -1}}
	return func(p JobProfile) float64 {
		c := &cached[p.DeviceSocket&1]
		if c.socket != p.DeviceSocket {
			read, write := n.socketDemand(p.DeviceSocket)
			dread, dwrite := n.socketDRAMDemand(p.DeviceSocket)
			c.factor = iv.overloadAll(read, write, dread, dwrite)
			c.socket = p.DeviceSocket
		}
		return iv.rate(p, c.factor)
	}
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
