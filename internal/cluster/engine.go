package cluster

import (
	"fmt"
	"math"

	"pmemsched/internal/numa"
)

// The virtual-clock event loop. Four event kinds exist: a job
// arriving, a job completing, a node failing and a node recovering.
// Events at equal times apply completions first (freeing capacity
// before the policy looks at the queue), then arrivals, then node
// failures and repairs, and break remaining ties by job/node ID, so
// the loop is fully deterministic. All events at one time are drained
// before the policy runs, so the intra-instant order only fixes how
// state mutations compose.
//
// One engine serves two drivers. simulate pulls a trace through it and
// meters the outcome (Simulate, SimulateStream); State, the daemon's
// placement store, submits jobs and moves the clock by request. Both
// run the same per-instant step, so a job parked in the store's future
// is an arrival event like any trace job's.
//
// With the interference model enabled the loop is a fluid reflow
// engine: jobs track remaining work in standalone-seconds, progress
// rates are recomputed at every residency change, and completion
// events are re-posted under a per-job epoch counter — an event whose
// epoch no longer matches its job's is stale and skipped. With the
// model disabled no rate ever changes, no event is ever re-posted, and
// the loop reproduces the original fixed-duration engine byte for
// byte.
//
// With the fault model enabled, node-down events kill every resident
// job (bumping its epoch, so any queued completion event goes stale)
// and hand it to the retry policy: requeue with exponential backoff
// via a fresh arrival event, or permanent failure once its attempt
// budget is spent. Checkpoint credit carries whole checkpoint
// intervals of standalone-seconds across attempts. With the model
// disabled no node event is ever posted and no code path below
// diverges from the fault-free engine.
//
// Fleet scale: the engine consumes its trace one staged arrival at a
// time (a million-job trace never needs a million-element slice),
// answers placement queries through the bucketed freeIndex instead of
// scanning every node, and hands policies a copy-on-write view instead
// of deep-copying every NodeView per pass. All three are exact — the
// index returns the node the linear scan would have, the COW view
// reads identically, and the metrics integrate the same occupancy
// values — which the tests pin against a brute-force linear reference.
// A pass costs what it touches, not the fleet size: the view aliases
// the nodes between passes, a pass clones a node into a reusable slot
// on its first placement there, and afterwards restores only the
// entries it cloned. The queue copy, the context and the placement
// buffer are reused across passes too, and the event heap is typed
// (container/heap's sift order without boxing each event), so a
// steady-state pass allocates only where a buffer must grow.
// The reflow is exact too: it re-rates only the sockets whose
// residency changed, which are the only ones whose rates can move, and
// it integrates progress lazily by replaying a log of reflow instants
// when a job's progress is read, which reproduces the eager
// integration's float steps bit for bit.

type eventKind uint8

const (
	evComplete eventKind = iota // frees capacity: apply before arrivals
	evArrive
	evNodeDown // kills residents; ordered after completions at the same instant
	evNodeUp
)

type event struct {
	at    float64
	kind  eventKind
	job   int // job ID, or node ID for evNodeDown/evNodeUp
	epoch int // completion epoch; stale when != the job's current epoch
}

// before orders events: time, then kind, then job/node ID, then epoch.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.job != b.job {
		return a.job < b.job
	}
	return a.epoch < b.epoch
}

// eventHeap is a binary min-heap of events under before. add and next
// are container/heap's Push and Pop, comparison for comparison and swap
// for swap, written for the concrete type: the pop order is the one
// container/heap gives, and no event is boxed in an interface.
type eventHeap []event

// add is heap.Push followed by heap.up.
func (h *eventHeap) add(e event) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !s[j].before(&s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// next is heap.Pop: swap the root to the end, heap.down over the rest,
// and take the end off.
func (h *eventHeap) next() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].before(&s[j1]) {
			j = j2 // right child
		}
		if !s[j].before(&s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
}

func (h *eventHeap) peek() (event, bool) {
	if len(*h) == 0 {
		return event{}, false
	}
	return (*h)[0], true
}

// jobState tracks one job through the engine.
type jobState struct {
	job      Job
	phase    JobPhase
	node     int
	cfg      string
	start    float64
	duration float64 // standalone runtime: the job's total work in standalone-seconds
	end      float64 // current completion estimate; the actual end once done

	// Fluid-reflow state, used only under the interference model.
	profile  JobProfile
	progress float64 // standalone-seconds of work completed (incl. credit), integrated up to lastAt
	rate     float64 // standalone-seconds per wall second (0 = not yet rated)
	lastAt   float64 // virtual time progress was last integrated to
	mark     int     // absolute progress-log index of the first reflow instant not yet integrated
	epoch    int     // current completion-event epoch

	// Fault-model state, used only when failures are enabled.
	attempts int     // times the job has started
	credit   float64 // checkpointed standalone-seconds carried into the next attempt
	wasted   float64 // standalone-seconds lost to kills (work beyond the last checkpoint)
	failed   bool    // retry budget exhausted; the job will never complete
}

// coresPerSocket resolves the effective per-socket core capacity.
func (o Options) coresPerSocket() int {
	if o.CoresPerSocket != 0 {
		return o.CoresPerSocket
	}
	return numa.TestbedConfig().CoresPerSocket
}

// Simulate runs the trace through the cluster under the policy and
// returns the collected metrics. The loop is event-driven: the virtual
// clock jumps between arrivals and completions, and the policy is
// consulted once per distinct event time with the post-event state.
func Simulate(tr Trace, opt Options) (*Metrics, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	cores := opt.coresPerSocket()
	for _, j := range tr.Jobs {
		if err := checkFits(j, cores, opt.DRAMBytesPerNode); err != nil {
			return nil, fmt.Errorf("cluster: job %d (%s) %w", j.ID, j.Workflow.Name, err)
		}
	}
	return simulate(tr.Source(), opt)
}

// SimulateStream is Simulate over a streaming trace: the engine pulls
// jobs from the source one arrival at a time, so the whole trace never
// needs to be resident. Jobs are validated as they stream in (IDs must
// equal stream positions, arrivals must be sorted, ranks must fit a
// socket). With identical jobs and options the report is byte-identical
// to Simulate over the materialized trace.
func SimulateStream(src TraceSource, opt Options) (*Metrics, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return simulate(&checkedSource{src: src, cores: opt.coresPerSocket(), dram: opt.DRAMBytesPerNode}, opt)
}

// checkFits rejects a job no node could ever hold: more ranks than a
// socket has cores, or — when DRAM is modeled (capacity > 0) — more
// resident DRAM than a node has. The error reads as the tail of a
// sentence the caller starts by naming the job.
func checkFits(j Job, cores int, dram float64) error {
	if j.Workflow.Ranks > cores {
		return fmt.Errorf("needs %d ranks but nodes have %d cores per socket", j.Workflow.Ranks, cores)
	}
	if demand := jobDRAMBytes(&j); dram > 0 && demand > dram {
		return fmt.Errorf("holds %g DRAM bytes resident but nodes have %g", demand, dram)
	}
	return nil
}

// checkedSource validates a user-supplied TraceSource as it streams:
// the incremental equivalent of Trace.Validate plus the fit check
// Simulate performs up front.
type checkedSource struct {
	src   TraceSource
	cores int
	dram  float64
	id    int
	prev  float64
}

func (c *checkedSource) Next() (Job, bool, error) {
	j, ok, err := c.src.Next()
	if err != nil {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job %d: %w", c.id, err)
	}
	if !ok {
		return Job{}, false, nil
	}
	if j.ID != c.id {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job at position %d has ID %d (IDs must equal stream positions)", c.id, j.ID)
	}
	if err := validateJob(j); err != nil {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job %d: %w", c.id, err)
	}
	if j.ArrivalSeconds < c.prev {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job %d: arrival %g before job %d's %g (stream must be sorted)",
			c.id, j.ArrivalSeconds, c.id-1, c.prev)
	}
	if err := checkFits(j, c.cores, c.dram); err != nil {
		return Job{}, false, fmt.Errorf("cluster: job %d (%s) %w", j.ID, j.Workflow.Name, err)
	}
	c.prev = j.ArrivalSeconds
	c.id++
	return j, true, nil
}

// dirtyNodes tracks, between reflow passes, which nodes saw a
// residency change and on which device socket: the reflow re-rates
// only the residents streaming through a changed socket.
type dirtyNodes struct {
	mask []uint8 // per node: bit s set = socket s's demand changed
	list []int   // nodes with a nonzero mask, in mark order
}

func (d *dirtyNodes) mark(node, socket int) {
	if d.mask[node] == 0 {
		d.list = append(d.list, node)
	}
	d.mask[node] |= 1 << uint(socket&1)
}

// progressLogCap bounds the progress log: a full log integrates the
// residents still pinning its older half and drops what no resident
// needs any more (see trimLog).
const progressLogCap = 4096

// progressLog records the distinct instants the engine reflowed at,
// oldest first. A resident's progress is integrated lazily: it is read
// only when the job is re-rated or killed, and catchUp then replays the
// instants the job has not yet integrated.
type progressLog struct {
	at   []float64 // distinct reflow instants, oldest first
	base int       // absolute index of at[0]
}

// engine is the scheduling core both drivers share: the nodes, the
// free-capacity index, the metered occupancy, the event heap, per-job
// state, the pending queue and the failure-avoid list.
type engine struct {
	opt   Options
	cores int
	retry RetryPolicy

	nodes []*NodeView
	idx   *freeIndex
	// occ mirrors each node's metered occupancy (the value
	// Cores - FreeAt(now) would report, including the convention that a
	// down node meters as fully busy), maintained incrementally so the
	// metrics never rescan resident lists.
	occ     []int
	states  []*jobState
	events  eventHeap
	pending []Job
	avoid   []int // per job: the node whose failure killed it; nil without faults
	faults  *faultDriver
	dirty   dirtyNodes
	log     progressLog
	// irregular is set once any committed profile has a negative or
	// non-finite demand; from then on the policy pass's overload-floor
	// early exit is off (see SchedContext.residentsRegular).
	irregular bool

	// Reusable policy-pass scratch. view aliases nodes entry for entry
	// between passes (a pass clones into it copy-on-write and restores
	// what it cloned); queue is the pass's copy of pending; ctx is the
	// context every pass hands the policy, with its clone slots and
	// placement buffer.
	view  []*NodeView
	owned []bool
	queue []Job
	ctx   SchedContext

	src      TraceSource // stages trace arrivals; nil once exhausted (always, for the store)
	finished int         // completed or permanently failed jobs
	popped   int         // event-heap pops, stale ones included
	passes   int         // live scheduling passes

	// Optional driver hooks: finish sees every job that completes or
	// permanently fails; placed sees every committed placement before it
	// charges the index.
	finish func(st *jobState)
	placed func(st *jobState, pl Placement)
}

// newEngine builds an engine over opt.Nodes fresh nodes. The options
// must already be validated.
func newEngine(opt Options) (*engine, error) {
	e := &engine{
		opt:   opt,
		cores: opt.coresPerSocket(),
		retry: opt.retry(),
	}
	e.idx = newFreeIndex(0, e.cores)
	if opt.Interference.Enabled {
		e.log.at = make([]float64, 0, progressLogCap)
	}
	for i := 0; i < opt.Nodes; i++ {
		e.addNode()
	}
	if opt.Faults.Enabled {
		var err error
		if e.faults, err = newFaultDriver(opt.Faults, opt.Nodes); err != nil {
			return nil, err
		}
		e.faults.start(opt.Nodes, &e.events)
	}
	return e, nil
}

// addNode registers one empty, schedulable node and returns its ID.
func (e *engine) addNode() int {
	id := e.idx.add()
	n := &NodeView{ID: id, Cores: e.cores, DRAMBytes: e.opt.DRAMBytesPerNode}
	e.nodes = append(e.nodes, n)
	e.occ = append(e.occ, 0)
	e.view = append(e.view, n)
	e.owned = append(e.owned, false)
	e.ctx.clones = append(e.ctx.clones, NodeView{})
	e.dirty.mask = append(e.dirty.mask, 0)
	return id
}

// addJob registers a job, not yet arrived.
func (e *engine) addJob(j Job) *jobState {
	st := &jobState{job: j, phase: JobFuture, node: -1}
	e.states = append(e.states, st)
	if e.opt.Faults.Enabled {
		e.avoid = append(e.avoid, -1)
	}
	return st
}

// pull stages the next trace job as an arrival event, or marks the
// source exhausted.
func (e *engine) pull() error {
	j, ok, err := e.src.Next()
	if err != nil {
		return err
	}
	if !ok {
		e.src = nil
		return nil
	}
	e.addJob(j)
	e.events.add(event{at: j.ArrivalSeconds, kind: evArrive, job: j.ID})
	return nil
}

// retire counts a job that completed or permanently failed.
func (e *engine) retire(st *jobState) {
	e.finished++
	if e.finish != nil {
		e.finish(st)
	}
}

// step runs one instant of the event loop: it applies every event due
// at now and, when any of them was live (or force is set), consults the
// policy once. It reports false when every event was stale and nothing
// was forced, so the instant changed nothing.
func (e *engine) step(now float64, force bool) (bool, error) {
	live := false
	for {
		ev, ok := e.events.peek()
		if !ok || ev.at != now {
			break
		}
		ev = e.events.next()
		e.popped++
		switch ev.kind {
		case evArrive:
			st := e.states[ev.job]
			st.phase = JobQueued
			e.pending = append(e.pending, st.job)
			// A fresh arrival (not a fault retry) consumed the staged
			// job; stage the next one from the source.
			if e.src != nil && ev.job == len(e.states)-1 && st.attempts == 0 {
				if err := e.pull(); err != nil {
					return false, err
				}
			}
			live = true
		case evComplete:
			st := e.states[ev.job]
			if st == nil || st.phase != JobRunning || ev.epoch != st.epoch {
				continue // superseded by a reflow re-post or a kill
			}
			st.phase = JobDone
			st.end = now
			if !e.nodes[st.node].remove(st.job.ID) {
				return false, fmt.Errorf("cluster: engine accounting: completion of job %d found no resident on node %d", st.job.ID, st.node)
			}
			if st.end > st.start { // zero-remaining placements never occupied cores
				e.idx.remove(st.node, st.job.Workflow.Ranks)
				e.occ[st.node] -= st.job.Workflow.Ranks
			}
			if e.opt.Interference.Enabled {
				e.dirty.mark(st.node, st.profile.DeviceSocket)
			}
			e.retire(st)
			live = true
		case evNodeDown:
			n := e.nodes[ev.job]
			n.Down = true
			n.UpSeconds = e.faults.repairAt(ev.job, now)
			e.events.add(event{at: n.UpSeconds, kind: evNodeUp, job: ev.job})
			for _, r := range n.Running {
				if st := e.states[r.JobID]; e.kill(st, now) {
					e.retire(st)
				}
			}
			n.Running = n.Running[:0]
			e.idx.down(ev.job)
			e.occ[ev.job] = n.Cores // a down node meters as fully busy (FreeAt reports 0 free)
			live = true
		case evNodeUp:
			n := e.nodes[ev.job]
			n.Down = false
			n.UpSeconds = 0
			if at, ok := e.faults.nextDown(ev.job, now); ok {
				e.events.add(event{at: at, kind: evNodeDown, job: ev.job})
			}
			e.idx.up(ev.job)
			e.occ[ev.job] = 0
			live = true
		}
	}
	if !live && !force {
		return false, nil
	}
	if live && e.opt.Interference.Enabled {
		// Residency changed: advance progress to now and re-rate the
		// survivors before the policy reads EndSeconds.
		e.reflow(now)
	}
	e.passes++
	return true, e.pass(now)
}

// pass consults the policy once over the pending queue and commits the
// returned placements. The policy sees a copy-on-write view of the
// nodes and the index under a journal the engine rolls back before
// re-applying the committed placements to the authoritative state.
// The view is restored entry by entry from the context's cloned list,
// so it aliases the authoritative nodes again for the next pass.
func (e *engine) pass(now float64) error {
	if len(e.nodes) == 0 {
		return nil // a store may see jobs before its fleet registers
	}
	e.queue = append(e.queue[:0], e.pending...)
	ctx := &e.ctx
	*ctx = SchedContext{Now: now, Queue: e.queue, Nodes: e.view, Est: e.opt.Estimator,
		Model: e.opt.Interference, avoid: e.avoid, idx: e.idx, owned: e.owned, residentsRegular: !e.irregular,
		cloned: ctx.cloned[:0], clones: ctx.clones, placed: ctx.placed}
	e.idx.begin()
	placements, err := e.opt.Policy.Schedule(ctx)
	e.idx.rollback()
	for _, id := range ctx.cloned {
		e.view[id] = e.nodes[id]
		e.owned[id] = false
	}
	if err != nil {
		return err
	}
	for _, pl := range placements {
		if err := e.commit(now, pl); err != nil {
			return err
		}
	}
	if e.opt.Interference.Enabled && len(placements) > 0 {
		// Newcomers changed residency: re-rate everyone again.
		e.reflow(now)
	}
	return nil
}

// commit checks one policy placement against the authoritative state
// and starts the job.
func (e *engine) commit(now float64, pl Placement) error {
	pol := e.opt.Policy
	if pl.JobID < 0 || pl.JobID >= len(e.states) || e.states[pl.JobID] == nil || e.states[pl.JobID].phase != JobQueued {
		return fmt.Errorf("cluster: policy %s placed unknown or unqueued job %d", pol.Name(), pl.JobID)
	}
	if pl.Node < 0 || pl.Node >= len(e.nodes) {
		return fmt.Errorf("cluster: policy %s placed job %d on unknown node %d", pol.Name(), pl.JobID, pl.Node)
	}
	st, n := e.states[pl.JobID], e.nodes[pl.Node]
	ranks := st.job.Workflow.Ranks
	if n.Down {
		return fmt.Errorf("cluster: policy %s placed job %d on failed node %d", pol.Name(), pl.JobID, pl.Node)
	}
	if n.FreeAt(now) < ranks {
		return fmt.Errorf("cluster: policy %s overcommitted node %d with job %d (%d ranks, %d cores free)",
			pol.Name(), pl.Node, pl.JobID, ranks, n.FreeAt(now))
	}
	dram := jobDRAMBytes(&st.job)
	if dram > 0 && n.DRAMBytes > 0 && n.DRAMFreeAt(now) < dram {
		return fmt.Errorf("cluster: policy %s overcommitted node %d DRAM with job %d (%g bytes demanded, %g free)",
			pol.Name(), pl.Node, pl.JobID, dram, n.DRAMFreeAt(now))
	}
	dur, err := estimateJob(e.opt.Estimator, &st.job, pl.Config)
	if err != nil {
		return fmt.Errorf("cluster: executing job %d (%s): %w", pl.JobID, st.job.Workflow.Name, err)
	}
	remaining := dur - st.credit // checkpoint credit resumes mid-job
	if remaining < 0 {
		remaining = 0
	}
	st.phase = JobRunning
	st.attempts++
	st.node = pl.Node
	st.cfg = pl.Config.Label()
	st.start = now
	st.duration = dur
	st.end = now + remaining
	if e.avoid != nil {
		e.avoid[pl.JobID] = -1
	}
	if e.opt.Interference.Enabled {
		prof, err := profileJob(e.opt.Estimator, &st.job, pl.Config)
		if err != nil {
			return fmt.Errorf("cluster: profiling job %d (%s): %w", pl.JobID, st.job.Workflow.Name, err)
		}
		st.profile = prof
		st.progress = st.credit
		st.lastAt = now
		st.mark = e.log.base + len(e.log.at)
		if !prof.regularDemand() {
			e.irregular = true
		}
		// rate stays 0: the pass's closing reflow rates the newcomer and
		// posts its first completion event.
		n.place(st.job.ID, ranks, st.end, dram, prof)
		e.dirty.mark(pl.Node, prof.DeviceSocket)
	} else {
		n.place(st.job.ID, ranks, st.end, dram, JobProfile{})
		e.events.add(event{at: st.end, kind: evComplete, job: st.job.ID, epoch: st.epoch})
	}
	if e.placed != nil {
		e.placed(st, pl)
	}
	if remaining > 0 {
		e.idx.place(pl.Node, ranks)
		e.occ[pl.Node] += ranks
	}
	e.pending = removeJob(e.pending, st.job.ID)
	return nil
}

// simulate is the batch driver behind Simulate and SimulateStream: it
// pulls the trace through the engine one instant at a time and meters
// occupancy between instants.
func simulate(src TraceSource, opt Options) (*Metrics, error) {
	if opt.Nodes == 0 {
		return nil, fmt.Errorf("cluster: need at least one node (got 0)")
	}
	e, err := newEngine(opt)
	if err != nil {
		return nil, err
	}
	e.src = src
	if err := e.pull(); err != nil {
		return nil, err
	}
	if len(e.states) == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	fleet := opt.Fleet
	m := newMetrics(opt.Policy.Name(), opt.Nodes, e.cores, opt.Interference.Enabled, opt.Faults.Enabled, fleet)
	if fleet.SummaryOnly {
		e.finish = func(st *jobState) {
			m.record(st)
			e.states[st.job.ID] = nil // aggregated; release the state
		}
	}
	prev := 0.0
	for {
		head, ok := e.events.peek()
		if !ok {
			break
		}
		now := head.at
		m.integrate(e.occ, prev, now)
		prev = now
		ran, err := e.step(now, false)
		if err != nil {
			return nil, err
		}
		if !ran {
			// Every event at this time was stale; occupancy did not
			// change, so there is nothing to schedule or sample.
			continue
		}
		m.sample(now, e.occ)
		if e.src == nil && e.finished == len(e.states) {
			// Every job has completed or permanently failed. Leaving now
			// (instead of draining the heap) is what terminates a random
			// failure schedule, whose node events would otherwise repost
			// forever; any remaining events are stale or node flaps over
			// an empty cluster, which produce no output either way.
			break
		}
	}

	if len(e.pending) > 0 {
		return nil, fmt.Errorf("cluster: policy %s stalled with %d jobs queued and the cluster idle", opt.Policy.Name(), len(e.pending))
	}
	if !fleet.SummaryOnly {
		for _, st := range e.states {
			m.record(st)
		}
	}
	m.Events, m.Passes = e.popped, e.passes
	m.finish()
	return m, nil
}

// reflow is the fluid step: log now as a reflow instant, then re-rate
// the residents of every socket a placement or completion marked dirty
// since the last reflow. A rate is a pure function of its socket's
// resident set, so a clean socket's residents already hold the rate a
// fresh evaluation would give them, and skipping them is exact, not an
// approximation. Mark order does not matter either: the event heap
// orders the re-posted completions by their keys alone.
//
// Progress is not integrated here. Between two changes of a job's rate
// the eager form — progress += (now-lastAt)*rate for every resident at
// every reflow — is a fixed sequence of float steps over the reflow
// instants, and only rerate and kill read its result. They replay the
// logged instants first (catchUp), with the same expression in the
// same order, so progress holds the same bits the eager loop would
// have left, and a reflow costs only its dirty sockets.
func (e *engine) reflow(now float64) {
	e.logInstant(now)
	d := &e.dirty
	for _, id := range d.list {
		n := e.nodes[id]
		mask := d.mask[id]
		d.mask[id] = 0
		rates := n.socketRates(e.opt.Interference)
		for i := range n.Running {
			st := e.states[n.Running[i].JobID]
			if mask&(1<<uint(st.profile.DeviceSocket&1)) == 0 {
				continue // the job's socket saw no residency change
			}
			if rate := rates(st.profile); rate != st.rate {
				e.rerate(now, st, &n.Running[i], rate)
			}
		}
	}
	d.list = d.list[:0]
}

// logInstant appends now to the progress log. A repeat of the newest
// instant is skipped: every resident was integrated to it already (or
// placed at it), so the eager step would add (now-now)*rate = 0.
func (e *engine) logInstant(now float64) {
	l := &e.log
	if n := len(l.at); n > 0 && l.at[n-1] == now {
		return
	}
	if len(l.at) == progressLogCap {
		e.trimLog()
	}
	l.at = append(l.at, now)
}

// trimLog makes room in a full progress log. Residents whose marks
// still pin its older half are integrated to the newest instant —
// exactly the steps the eager loop would have spent on them — and the
// prefix no resident needs any more is dropped, so the log never holds
// more than progressLogCap instants.
func (e *engine) trimLog() {
	l := &e.log
	half := l.base + len(l.at)/2
	keep := l.base + len(l.at)
	for _, n := range e.nodes {
		for _, r := range n.Running {
			st := e.states[r.JobID]
			if st.mark < half {
				e.catchUp(st)
			}
			keep = min(keep, st.mark)
		}
	}
	l.at = l.at[:copy(l.at, l.at[keep-l.base:])]
	l.base = keep
}

// catchUp integrates the job's progress over the logged instants past
// its mark, in order, with the eager loop's expression.
func (e *engine) catchUp(st *jobState) {
	l := &e.log
	at := l.at[st.mark-l.base:]
	st.mark = l.base + len(l.at)
	if len(at) == 0 {
		return
	}
	if st.rate > 0 {
		progress, lastAt, rate := st.progress, st.lastAt, st.rate
		for _, t := range at {
			progress += (t - lastAt) * rate
			lastAt = t
		}
		st.progress = progress
	}
	st.lastAt = at[len(at)-1]
}

// rerate applies a resident's changed progress rate: the job's progress
// is brought up to now under the old rate, its completion is
// re-estimated from the remaining work, its epoch bumps and a fresh
// completion event is posted (the old one, now stale, is skipped when
// it pops). The reflow compares rates first, so the common unchanged
// case costs no call.
func (e *engine) rerate(now float64, st *jobState, r *RunningJob, rate float64) {
	e.catchUp(st)
	st.rate = rate
	remaining := st.duration - st.progress
	if remaining < 0 {
		remaining = 0
	}
	st.end = now + remaining/rate
	st.epoch++
	r.EndSeconds = st.end
	e.events.add(event{at: st.end, kind: evComplete, job: st.job.ID, epoch: st.epoch})
}

// kill handles one resident job on a failing node: integrate its
// progress, bank whole checkpoint intervals as credit, charge the rest
// as waste, and either requeue it with exponential backoff or fail it
// permanently once its attempt budget is spent. Returns true when the
// job permanently failed (it counts as finished), false when it will
// retry. The caller clears the node's resident list.
//
// The requeue time is guarded against the no-fit sentinel: an
// exponential backoff large enough to overflow (or to land at or past
// noFitSeconds) used to produce a +Inf arrival time, which poisoned
// every derived metric and made the JSON export fail outright. A job
// whose requeue time is unrepresentable now fails permanently instead.
func (e *engine) kill(st *jobState, now float64) bool {
	achieved := st.credit + (now - st.start)
	if e.opt.Interference.Enabled {
		// Fluid progress is exact: replay the logged reflows, then
		// integrate to the failure instant under the rate that held since
		// the last residency change.
		e.catchUp(st)
		if st.rate > 0 {
			st.progress += (now - st.lastAt) * st.rate
		}
		st.lastAt = now
		achieved = st.progress
	}
	if achieved > st.duration {
		achieved = st.duration
	}
	st.credit = e.retry.credit(achieved)
	st.wasted += achieved - st.credit
	st.phase = JobFuture
	st.rate = 0
	st.epoch++ // any queued completion event for this attempt is now stale
	requeue := now + e.retry.backoff(st.attempts)
	if st.attempts >= e.retry.MaxAttempts || math.IsInf(requeue, 0) || isNoFit(requeue) {
		// Out of attempts — or the next attempt is beyond the
		// representable horizon: the job fails permanently and its banked
		// checkpoints never pay off.
		st.phase = JobDone
		st.failed = true
		st.end = now
		st.wasted += st.credit
		st.credit = 0
		return true
	}
	e.avoid[st.job.ID] = st.node
	e.events.add(event{at: requeue, kind: evArrive, job: st.job.ID})
	return false
}

// removeJob drops the job from the pending queue preserving order.
func removeJob(pending []Job, id int) []Job {
	for i, j := range pending {
		if j.ID == id {
			return append(pending[:i], pending[i+1:]...)
		}
	}
	return pending
}
