package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Proc is one simulated process (an MPI rank, in this repository).
type Proc struct {
	id   int
	name string
	prog Program

	// current stage state
	stage    Stage
	stageEnd float64 // for Compute: absolute completion time
	flow     *Flow   // for Transfer
	waitC    *Cond   // for Wait
	waitV    int64
	done     bool
	endTime  float64

	acct    map[string]float64 // per-tag accumulated seconds
	tag     string             // tag of the stage in progress
	tick    float64            // time the stage in progress started/resumed
	charges []Charge           // analytic attributions for the transfer in progress
}

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process has terminated.
func (p *Proc) Done() bool { return p.done }

// EndTime returns the simulated time at which the process terminated.
// Valid only after Done.
func (p *Proc) EndTime() float64 { return p.endTime }

// TimeIn returns the accumulated simulated seconds the process spent
// in stages carrying the given tag.
func (p *Proc) TimeIn(tag string) float64 { return p.acct[tag] }

// Tags returns the accounting tags seen by this process, sorted.
func (p *Proc) Tags() []string {
	tags := make([]string, 0, len(p.acct))
	for t := range p.acct {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// Kernel is the simulation engine. Create with New, add processes with
// Spawn, then call Run.
type Kernel struct {
	now     float64
	procs   []*Proc
	flows   []*Flow // active transfers, ordered by arrival
	dirty   bool    // flow set changed since last rate computation
	condSeq int

	// Rate-round buffers, reused across rounds. rounds[cur] holds the
	// flow lists installed by the latest round; the next round builds
	// its lists in the other element, so the installed slices stay
	// intact until their replacement has been installed (see
	// Resource.SetFlows).
	rounds    [2]rateRound
	cur       int
	slotOf    map[Resource]int // this round's resource -> slot
	pathSlots []int            // every active flow's path as slots, in flow order
	evals     []slotEval       // this round's latest evaluation per slot
	epoch     uint64           // weight epoch: moves when any evaluation may change

	// MaxSteps bounds the number of kernel events as a runaway guard;
	// zero means the default (1e9).
	MaxSteps int64

	tracer *Tracer
}

// New returns an empty kernel at time zero.
func New() *Kernel { return &Kernel{slotOf: map[Resource]int{}} }

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// NewCond returns a condition with published value zero.
func (k *Kernel) NewCond(name string) *Cond {
	k.condSeq++
	if name == "" {
		name = fmt.Sprintf("cond-%d", k.condSeq)
	}
	return &Cond{name: name}
}

// Spawn adds a process running prog. Processes spawned before Run
// start at time zero; spawning after Run has returned is not
// supported.
func (k *Kernel) Spawn(name string, prog Program) *Proc {
	p := &Proc{
		id:   len(k.procs),
		name: name,
		prog: prog,
		acct: map[string]float64{},
	}
	k.procs = append(k.procs, p)
	return p
}

// ErrDeadlock is returned by Run when live processes remain but no
// event can ever fire (every live process waits on a condition or
// barrier that nothing will publish).
var ErrDeadlock = errors.New("sim: deadlock: all live processes blocked")

// Run executes the simulation until every process terminates. It
// returns the final simulated time.
func (k *Kernel) Run() (float64, error) {
	maxSteps := k.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1_000_000_000
	}
	k.prime()
	for step := int64(0); ; step++ {
		if step > maxSteps {
			return k.now, fmt.Errorf("sim: exceeded %d kernel steps at t=%g", maxSteps, k.now)
		}
		if k.allDone() {
			return k.now, nil
		}
		if k.dirty {
			k.assignRates()
			k.dirty = false
		}
		t, ok := k.nextEventTime()
		if !ok {
			return k.now, fmt.Errorf("%w at t=%g: %s", ErrDeadlock, k.now, k.blockedSummary())
		}
		k.advanceTo(t)
		k.completeStages()
	}
}

// prime starts every process that has not yet started on its first
// stage.
func (k *Kernel) prime() {
	for _, p := range k.procs {
		if p.stage == nil && !p.done {
			k.advanceProc(p)
		}
	}
}

func (k *Kernel) allDone() bool {
	for _, p := range k.procs {
		if !p.done {
			return false
		}
	}
	return true
}

// advanceProc pulls stages from the program until the process blocks
// on one (or terminates). Wait stages whose condition is already
// satisfied and barrier arrivals that complete the barrier are
// consumed immediately, so a program can express fine-grained
// synchronization without spurious zero-length events.
func (k *Kernel) advanceProc(p *Proc) {
	for {
		s := p.prog.Next(k)
		if s == nil {
			p.done = true
			p.endTime = k.now
			return
		}
		switch st := s.(type) {
		case Compute:
			if st.Seconds < 0 {
				panic(fmt.Sprintf("sim: proc %q: negative compute duration %g", p.name, st.Seconds))
			}
			if st.Seconds == 0 {
				p.charge(st.Tag, 0)
				continue // zero-length stage: account and move on
			}
			p.stage = s
			p.stageEnd = k.now + st.Seconds
			p.beginAt(st.Tag, k.now)
			return
		case Transfer:
			if st.Bytes < 0 {
				panic(fmt.Sprintf("sim: proc %q: negative transfer size %g", p.name, st.Bytes))
			}
			if st.OpBytes < 0 || st.PerOpSeconds < 0 {
				panic(fmt.Sprintf("sim: proc %q: negative per-op transfer parameters", p.name))
			}
			if len(st.Path) == 0 {
				panic(fmt.Sprintf("sim: proc %q: transfer with empty resource path", p.name))
			}
			if st.Bytes == 0 {
				p.charge(st.Tag, 0)
				continue
			}
			opBytes := st.OpBytes
			if opBytes == 0 || opBytes > st.Bytes {
				opBytes = st.Bytes
			}
			f := &Flow{
				Class:     st.Class,
				Weight:    1,
				opBytes:   opBytes,
				perOp:     st.PerOpSeconds,
				path:      st.Path,
				remaining: st.Bytes,
				proc:      p,
			}
			p.stage = s
			p.flow = f
			p.charges = st.Charges
			p.beginAt(st.Tag, k.now)
			k.flows = append(k.flows, f)
			k.dirty = true
			return
		case Wait:
			if st.C == nil {
				panic(fmt.Sprintf("sim: proc %q: wait on nil cond", p.name))
			}
			if st.C.value >= st.Target {
				p.charge(st.Tag, 0)
				continue
			}
			p.stage = s
			p.waitC = st.C
			p.waitV = st.Target
			p.beginAt(st.Tag, k.now)
			return
		case Arrive:
			if st.B == nil {
				panic(fmt.Sprintf("sim: proc %q: arrive at nil barrier", p.name))
			}
			waitFor, released := st.B.arrive()
			if released {
				p.charge(st.Tag, 0)
				// The completing arrival wakes everyone blocked on the
				// barrier's generation; they resume at the current time.
				k.wakeBarrier(st.B)
				continue
			}
			p.stage = s
			p.waitV = waitFor
			p.beginAt(st.Tag, k.now)
			return
		default:
			panic(fmt.Sprintf("sim: proc %q: unknown stage type %T", p.name, s))
		}
	}
}

// wakeWaiters resumes processes whose Wait condition is now satisfied.
// Called by Cond.Publish.
func (k *Kernel) wakeWaiters() {
	for _, p := range k.procs {
		if p.done {
			continue
		}
		if w, ok := p.stage.(Wait); ok && w.C.value >= p.waitV {
			k.traceFinish(p, k.now)
			p.finishStage(k.now)
			k.advanceProc(p)
		}
	}
}

// wakeBarrier resumes processes blocked at b whose awaited generation
// has completed.
func (k *Kernel) wakeBarrier(b *Barrier) {
	for _, p := range k.procs {
		if p.done {
			continue
		}
		if a, ok := p.stage.(Arrive); ok && a.B == b && b.gen >= p.waitV {
			k.traceFinish(p, k.now)
			p.finishStage(k.now)
			k.advanceProc(p)
		}
	}
}

// rateIterations caps the Gauss–Seidel sweeps a rate round makes to
// settle flow duty-cycle weights against capacity models that depend
// on them. A round makes at most four sweeps, and stops early at a
// bit-exact fixed point: a sweep that leaves every weight bit-identical
// would be repeated bit for bit by the next, so the rates it set are
// the ones the fourth sweep would set. Four sweeps do not always reach
// the fixed point: a flow whose per-operation software cost is
// comparable to its device time, on a device whose capacity grows with
// the weighted census, can see its weight alternate between two values
// instead of converging. Over a full wfsuite run on the Gen-1 model
// (190,460 rate rounds), a second round on the unchanged flow set moved
// no rate by 0.1% or more in 88.5% of rounds and by 1% or more in
// 5.4%; the largest move was 28%. TestWeightConvergence pins the
// residual on a synthetic census resource. The cap is part of the
// model: changing it changes results.
const rateIterations = 4

// rateRound is one rate round's resource layout: the union of the
// active flows' paths in first-use order, and for each of those
// resources (a slot) the flows routed through it, in flow order.
type rateRound struct {
	resources []Resource
	flowsOn   [][]*Flow
}

// reset empties the round, keeping its storage for reuse.
func (rd *rateRound) reset() {
	rd.resources = rd.resources[:0]
	rd.flowsOn = rd.flowsOn[:0]
}

// add appends r as a new slot with an empty flow list and returns the
// slot.
func (rd *rateRound) add(r Resource) int {
	i := len(rd.resources)
	rd.resources = append(rd.resources, r)
	if i < cap(rd.flowsOn) {
		rd.flowsOn = rd.flowsOn[:i+1]
		rd.flowsOn[i] = rd.flowsOn[i][:0]
	} else {
		rd.flowsOn = append(rd.flowsOn, nil)
	}
	return i
}

// slotEval is a slot's latest evaluation: its resource's capacity and
// per-flow cap, and the weighted census of its flows (at least 1),
// valid while the kernel's weight epoch equals epoch.
type slotEval struct {
	capacity, perFlow, census float64
	epoch                     uint64
}

// installRound lays out a new round over the active flows, installs
// its flow lists on their resources and returns it.
func (k *Kernel) installRound() *rateRound {
	prev := &k.rounds[k.cur]
	k.cur ^= 1
	rd := &k.rounds[k.cur]
	rd.reset()
	clear(k.slotOf)
	// Lay out this round: slots for the union of the flows' paths, the
	// flow list of each slot, and every flow's path resolved to slots,
	// so the sweeps index slices instead of looking resources up.
	k.pathSlots = k.pathSlots[:0]
	for _, f := range k.flows {
		for _, r := range f.path {
			i, ok := k.slotOf[r]
			if !ok {
				i = rd.add(r)
				k.slotOf[r] = i
			}
			rd.flowsOn[i] = append(rd.flowsOn[i], f)
			k.pathSlots = append(k.pathSlots, i)
		}
	}
	// Clear resources that dropped out since the previous round, so
	// stateful resources (e.g. the PMEM device's pressure integrator)
	// observe an idle period instead of integrating a stale census
	// across it; then install this round's flow lists.
	for _, r := range prev.resources {
		if _, ok := k.slotOf[r]; !ok {
			r.SetFlows(k.now, nil)
		}
	}
	for i, r := range rd.resources {
		r.SetFlows(k.now, rd.flowsOn[i])
	}
	return rd
}

// assignRates recomputes flow rates and returns the number of sweeps
// it made. Each flow's device share is its equal share of every path
// resource's capacity under the current weighted census (capped by the
// resource's per-flow stream limit); its payload rate is then
// throttled by the per-operation software cost, which in turn
// determines the duty-cycle weight the next iteration's census sees.
//
// An evaluation depends only on the installed flows' weights and on
// state fixed at install (see Resource), so a slot's evaluation and
// census are reused until some weight changes. One kernel-wide epoch
// tracks that: it moves after the installs and whenever a flow's
// weight changes bitwise. It is global, not per resource, because a
// device's ports share one census the kernel cannot see.
func (k *Kernel) assignRates() int {
	rd := k.installRound()
	// Every earlier evaluation is stale: its epoch is below this one.
	k.epoch++
	k.evals = slices.Grow(k.evals[:0], len(rd.resources))[:len(rd.resources)]

	for sweep := 1; sweep <= rateIterations; sweep++ {
		start := k.epoch
		slots := k.pathSlots
		for _, f := range k.flows {
			share := math.Inf(1)
			for range f.path {
				i := slots[0]
				slots = slots[1:]
				e := &k.evals[i]
				if e.epoch != k.epoch {
					e.capacity, e.perFlow = rd.resources[i].Evaluate()
					w := 0.0
					for _, g := range rd.flowsOn[i] {
						w += g.Weight
					}
					if w < 1 {
						w = 1
					}
					e.census, e.epoch = w, k.epoch
				}
				s := min(e.capacity/e.census, e.perFlow)
				if s < share {
					share = s
				}
			}
			if share < minRate {
				share = minRate
			}
			old := f.Weight
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
			if math.Float64bits(f.Weight) != math.Float64bits(old) {
				k.epoch++
			}
		}
		// No weight moved, so a further sweep would repeat this one bit
		// for bit.
		if k.epoch == start {
			return sweep
		}
	}
	return rateIterations
}

// nextEventTime returns the earliest pending completion time.
func (k *Kernel) nextEventTime() (float64, bool) {
	t := math.Inf(1)
	for _, p := range k.procs {
		if p.done {
			continue
		}
		switch p.stage.(type) {
		case Compute:
			if p.stageEnd < t {
				t = p.stageEnd
			}
		case Transfer:
			end := k.now + p.flow.remaining/p.flow.rate
			if end < t {
				t = end
			}
		}
	}
	if math.IsInf(t, 1) {
		return 0, false
	}
	return t, true
}

// advanceTo integrates transfer progress up to time t and moves the
// clock.
func (k *Kernel) advanceTo(t float64) {
	dt := t - k.now
	if dt < 0 {
		dt = 0
		t = k.now
	}
	for _, f := range k.flows {
		f.remaining -= f.rate * dt
	}
	k.now = t
}

// completeStages finishes every stage that has reached completion at
// the current time, then lets those processes advance (which may
// publish conditions and wake others).
func (k *Kernel) completeStages() {
	const eps = 1e-9 // seconds; transfers within a ns of done complete
	for _, p := range k.procs {
		if p.done {
			continue
		}
		switch p.stage.(type) {
		case Compute:
			if p.stageEnd <= k.now+1e-15*max(1, k.now) {
				k.traceFinish(p, k.now)
				p.finishStage(k.now)
				k.advanceProc(p)
			}
		case Transfer:
			if p.flow.remaining <= p.flow.rate*eps {
				p.flow.remaining = 0
				k.removeFlow(p.flow)
				p.flow = nil
				k.traceFinish(p, k.now)
				p.finishStage(k.now)
				k.advanceProc(p)
			}
		}
	}
}

func (k *Kernel) removeFlow(f *Flow) {
	for i, g := range k.flows {
		if g == f {
			k.flows = append(k.flows[:i], k.flows[i+1:]...)
			k.dirty = true
			return
		}
	}
}

func (k *Kernel) blockedSummary() string {
	s := ""
	for _, p := range k.procs {
		if p.done {
			continue
		}
		switch st := p.stage.(type) {
		case Wait:
			s += fmt.Sprintf(" %s waits %s>=%d (at %d);", p.name, st.C.name, p.waitV, st.C.value)
		case Arrive:
			s += fmt.Sprintf(" %s at barrier %s gen %d;", p.name, st.B.name, p.waitV)
		}
	}
	return s
}

// beginAt starts accounting the current stage under tag at time now.
func (p *Proc) beginAt(tag string, now float64) {
	p.tag = tag
	p.tick = now
}

// finishStage charges the elapsed stage time and clears stage state.
// For transfer phases, the analytically known charges (software cost,
// interleaved compute) are attributed first and the remainder — the
// device time — goes to the stage tag.
func (p *Proc) finishStage(now float64) {
	elapsed := now - p.tick
	for _, c := range p.charges {
		attributed := min(c.Seconds, elapsed)
		p.charge(c.Tag, attributed)
		elapsed -= attributed
	}
	p.charge(p.tag, elapsed)
	p.stage = nil
	p.waitC = nil
	p.tag = ""
	p.charges = nil
}

func (p *Proc) charge(tag string, seconds float64) {
	if tag == "" {
		tag = "untagged"
	}
	p.acct[tag] += seconds
}
