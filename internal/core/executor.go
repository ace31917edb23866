package core

import (
	"fmt"

	"pmemsched/internal/numa"
	"pmemsched/internal/platform"
	"pmemsched/internal/sim"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/workflow"
)

// Env supplies the platform and storage stack an execution runs on.
// Machines and stack instances are stateful (device census, core
// reservations, channel metadata), so the environment hands out fresh
// ones per run.
type Env struct {
	// NewMachine builds the simulated server. Defaults to the paper's
	// testbed (dual-socket 28-core Xeon, Gen-1 Optane per socket).
	NewMachine func() *platform.Machine
	// NewStack builds the storage stack instance. Defaults to NOVA (the
	// stack behind the paper's headline small-object observations; see
	// §VII and the stack-comparison experiment for NVStream).
	NewStack func() stack.Instance
	// Tag optionally distinguishes environments whose structural cache
	// fingerprints coincide (same topology, device model, and probed
	// stack costs) but whose behaviour differs — e.g. a fault-injecting
	// stack wrapping a stock one. The run engine folds it into every
	// cache key; plain environments can leave it empty.
	Tag string
}

// DefaultEnv returns the paper's evaluation environment: the hardware
// testbed of §V with NOVA as the transport.
func DefaultEnv() Env {
	return Env{}
}

func (e Env) machine() *platform.Machine {
	if e.NewMachine != nil {
		return e.NewMachine()
	}
	return platform.Testbed()
}

func (e Env) stack() stack.Instance {
	if e.NewStack != nil {
		return e.NewStack()
	}
	return nova.Default()
}

// PhaseBreakdown is the per-rank mean time spent in each activity by
// one component over a run.
type PhaseBreakdown struct {
	Compute float64
	SW      float64 // stack software cost + device setup latency
	IO      float64 // device transfer
	Wait    float64 // blocked on data availability
	Gate    float64 // blocked on the serial-mode gate
	Barrier float64
}

// Busy returns compute+sw+io (time the rank was doing work rather than
// blocked).
func (b PhaseBreakdown) Busy() float64 { return b.Compute + b.SW + b.IO }

// Result is the measured outcome of running a workflow under one
// configuration.
type Result struct {
	Workflow string
	Config   Config
	// TotalSeconds is the end-to-end workflow runtime (the paper's
	// primary metric).
	TotalSeconds float64
	// WriterEnd is when the last simulation rank finished; ReaderEnd is
	// when the last analytics rank finished (== TotalSeconds).
	WriterEnd float64
	ReaderEnd float64
	// WriterSplit/ReaderSplit are the split-bar values the paper plots
	// for serially scheduled workflows: the writer phase and the
	// portion of the runtime after the writers finished.
	WriterSplit float64
	ReaderSplit float64
	Writer      PhaseBreakdown
	Reader      PhaseBreakdown
	// Drain is the per-rank mean breakdown of the background drain
	// processes under write-stage-drain; zero for every other policy.
	Drain PhaseBreakdown
}

// Run executes the workflow under the configuration and returns the
// measured result.
//
// Deployment follows §II-A and Fig 2: simulation ranks are pinned to
// socket 0, analytics ranks to socket 1, and the streaming-I/O channel
// lives in the PMEM local to the component the placement prioritizes.
// Serial mode gates analytics behind the simulation's completion;
// parallel mode lets analytics stream each snapshot version while it
// is being produced.
func Run(wf workflow.Spec, cfg Config, env Env) (Result, error) {
	res, _, err := RunWithTrace(wf, cfg, env, false)
	return res, err
}

// Deployment places a workflow's components and its PMEM channel on
// concrete sockets, plus the execution mode — the general form of a
// configuration. The paper's two-socket configuration space maps onto
// deployments via Config.Deployment; on machines with more sockets,
// PlacementOracle searches the full space (including channels placed
// local to neither component, which the paper's Fig 2 excludes).
type Deployment struct {
	Mode         Mode
	SimSocket    numa.SocketID
	AnaSocket    numa.SocketID
	DeviceSocket numa.SocketID
}

// Validate reports whether the deployment satisfies the paper's
// constraints: components on distinct sockets (in situ co-location on
// one socket is out of scope, §II-A).
func (d Deployment) Validate() error {
	if d.SimSocket == d.AnaSocket {
		return fmt.Errorf("core: simulation and analytics must occupy distinct sockets (got %d)", d.SimSocket)
	}
	return nil
}

// Label renders the deployment compactly, e.g. "S sim@0 ana@1 pmem@0".
func (d Deployment) Label() string {
	mode := "S"
	if d.Mode == Parallel {
		mode = "P"
	}
	return fmt.Sprintf("%s sim@%d ana@%d pmem@%d", mode, d.SimSocket, d.AnaSocket, d.DeviceSocket)
}

// Deployment returns the configuration's canonical two-socket
// deployment (Fig 2): simulation on socket 0, analytics on socket 1,
// channel local to the prioritized component.
func (c Config) Deployment() Deployment {
	d := Deployment{Mode: c.Mode, SimSocket: 0, AnaSocket: 1, DeviceSocket: 0}
	if c.Placement == LocR {
		d.DeviceSocket = 1
	}
	return d
}

// RunWithTrace executes like Run and, when traced is true, additionally
// returns the kernel's stage timeline (exportable to the Chrome trace
// viewer via sim.Tracer.WriteChromeTrace).
func RunWithTrace(wf workflow.Spec, cfg Config, env Env, traced bool) (Result, *sim.Tracer, error) {
	res, tr, err := RunDeployment(wf, cfg.Deployment(), env, traced)
	if err != nil {
		return res, tr, err
	}
	res.Config = cfg
	return res, tr, nil
}

// RunDeployment executes the workflow under an explicit deployment.
func RunDeployment(wf workflow.Spec, dep Deployment, env Env, traced bool) (Result, *sim.Tracer, error) {
	if err := wf.Validate(); err != nil {
		return Result{}, nil, err
	}
	if err := dep.Validate(); err != nil {
		return Result{}, nil, err
	}
	m := env.machine()
	st := env.stack()
	for _, c := range []struct {
		role   string
		socket numa.SocketID
	}{{"simulation", dep.SimSocket}, {"analytics", dep.AnaSocket}, {"channel", dep.DeviceSocket}} {
		if n := len(m.Topology.Sockets); int(c.socket) < 0 || int(c.socket) >= n {
			return Result{}, nil, fmt.Errorf("core: placing %s: no socket %d in %d-socket machine", c.role, c.socket, n)
		}
	}

	simSocket := dep.SimSocket
	anaSocket := dep.AnaSocket
	deviceSocket := dep.DeviceSocket
	cfg := Config{Mode: dep.Mode, Placement: LocW}
	if deviceSocket == anaSocket {
		cfg.Placement = LocR
	}
	if _, err := m.Topology.Socket(simSocket).ReserveCores(wf.Ranks); err != nil {
		return Result{}, nil, fmt.Errorf("core: placing simulation: %w", err)
	}
	if _, err := m.Topology.Socket(anaSocket).ReserveCores(wf.Ranks); err != nil {
		return Result{}, nil, fmt.Errorf("core: placing analytics: %w", err)
	}

	k := sim.New()
	var tracer *sim.Tracer
	if traced {
		tracer = &sim.Tracer{}
		k.SetTracer(tracer)
	}
	startConds := make([]*sim.Cond, wf.Ranks)
	commitConds := make([]*sim.Cond, wf.Ranks)
	for r := 0; r < wf.Ranks; r++ {
		startConds[r] = k.NewCond(fmt.Sprintf("start.%d", r))
		commitConds[r] = k.NewCond(fmt.Sprintf("commit.%d", r))
	}
	var gate *sim.Cond
	if cfg.Mode == Serial {
		gate = k.NewCond("writers-done")
	}
	errs := &workflow.ErrorSink{}

	// Write-stage-drain interposes a per-rank background drain process
	// between the writer (staging into DRAM) and the PMEM channel.
	staged := wf.Tier.Enabled() && wf.Tier.Policy == workflow.TierWriteStageDrain
	var stagedConds []*sim.Cond
	var drainBarrier *sim.Barrier
	if staged {
		stagedConds = make([]*sim.Cond, wf.Ranks)
		for r := 0; r < wf.Ranks; r++ {
			stagedConds[r] = k.NewCond(fmt.Sprintf("staged.%d", r))
		}
		drainBarrier = sim.NewBarrier("drain.barrier", wf.Ranks)
	}

	wcfg := workflow.CompileConfig{
		Component:    wf.Simulation,
		Ranks:        wf.Ranks,
		Iterations:   wf.Iterations,
		Placement:    workflow.Placement{RankSocket: simSocket, DeviceSocket: deviceSocket},
		Machine:      m,
		Stack:        st,
		Channel:      st,
		StartConds:   startConds,
		CommitConds:  commitConds,
		Gate:         gate,
		Barrier:      sim.NewBarrier("sim.barrier", wf.Ranks),
		Errs:         errs,
		Tier:         wf.Tier,
		StagedConds:  stagedConds,
		DrainBarrier: drainBarrier,
	}
	rcfg := wcfg
	rcfg.Component = wf.Analytics
	rcfg.Placement = workflow.Placement{RankSocket: anaSocket, DeviceSocket: deviceSocket}
	rcfg.Barrier = sim.NewBarrier("ana.barrier", wf.Ranks)
	rcfg.StagedConds = nil
	rcfg.DrainBarrier = nil

	writers := make([]*sim.Proc, wf.Ranks)
	readers := make([]*sim.Proc, wf.Ranks)
	var drains []*sim.Proc
	for r := 0; r < wf.Ranks; r++ {
		writers[r] = k.Spawn(fmt.Sprintf("sim.%d", r), workflow.WriterProgram(wcfg, r))
	}
	if staged {
		drains = make([]*sim.Proc, wf.Ranks)
		for r := 0; r < wf.Ranks; r++ {
			drains[r] = k.Spawn(fmt.Sprintf("drain.%d", r), workflow.DrainProgram(wcfg, r))
		}
	}
	for r := 0; r < wf.Ranks; r++ {
		readers[r] = k.Spawn(fmt.Sprintf("ana.%d", r), workflow.ReaderProgram(rcfg, r))
	}

	total, err := k.Run()
	if err != nil {
		return Result{}, nil, fmt.Errorf("core: %s under %s: %w", wf.Name, cfg.Label(), err)
	}
	if err := errs.Err(); err != nil {
		return Result{}, nil, fmt.Errorf("core: %s under %s: channel integrity: %w", wf.Name, cfg.Label(), err)
	}

	res := Result{
		Workflow:     wf.Name,
		Config:       cfg,
		TotalSeconds: total,
	}
	for _, p := range writers {
		if p.EndTime() > res.WriterEnd {
			res.WriterEnd = p.EndTime()
		}
	}
	for _, p := range readers {
		if p.EndTime() > res.ReaderEnd {
			res.ReaderEnd = p.EndTime()
		}
	}
	res.WriterSplit = res.WriterEnd
	res.ReaderSplit = total - res.WriterEnd
	res.Writer = breakdown(writers)
	res.Reader = breakdown(readers)
	if len(drains) > 0 {
		res.Drain = breakdown(drains)
	}
	return res, tracer, nil
}

func breakdown(procs []*sim.Proc) PhaseBreakdown {
	var b PhaseBreakdown
	for _, p := range procs {
		b.Compute += p.TimeIn(workflow.TagCompute)
		b.SW += p.TimeIn(workflow.TagSW)
		b.IO += p.TimeIn(workflow.TagIO)
		b.Wait += p.TimeIn(workflow.TagWait)
		b.Gate += p.TimeIn(workflow.TagGate)
		b.Barrier += p.TimeIn(workflow.TagBarrier)
	}
	n := float64(len(procs))
	b.Compute /= n
	b.SW /= n
	b.IO /= n
	b.Wait /= n
	b.Gate /= n
	b.Barrier /= n
	return b
}

// RunAll executes the workflow under every configuration of Table I
// and returns the results in Configs order. It runs on a fresh run
// engine (worker pool of GOMAXPROCS); results are identical to serial
// execution.
func RunAll(wf workflow.Spec, env Env) ([]Result, error) {
	return NewRunner(env, 0).RunAll(wf)
}

// Best returns the result with the smallest total runtime (ties break
// toward the earlier Table I ordering, matching how the paper reports
// a single optimal configuration per workload).
func Best(results []Result) Result {
	best := results[0]
	for _, r := range results[1:] {
		if r.TotalSeconds < best.TotalSeconds {
			best = r
		}
	}
	return best
}
