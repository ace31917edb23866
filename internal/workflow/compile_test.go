package workflow

import (
	"fmt"
	"math"
	"testing"

	"pmemsched/internal/platform"
	"pmemsched/internal/sim"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/units"
)

// runComponents assembles a tiny two-component workflow directly on the
// compile layer and returns the kernel, procs, stack and error sink.
func runComponents(t *testing.T, serial bool, ranks, iters int) (writerEnd, total float64, st *nova.FS, errs *ErrorSink) {
	t.Helper()
	m := platform.Testbed()
	st = nova.Default()
	k := sim.New()
	errs = &ErrorSink{}

	comp := ComponentSpec{
		Name:                "w",
		ComputePerIteration: 0.01,
		Objects:             []ObjectSpec{{Bytes: 4 * units.MiB, CountPerRank: 8}},
	}
	startConds := make([]*sim.Cond, ranks)
	commitConds := make([]*sim.Cond, ranks)
	for r := 0; r < ranks; r++ {
		startConds[r] = k.NewCond(fmt.Sprintf("s%d", r))
		commitConds[r] = k.NewCond(fmt.Sprintf("c%d", r))
	}
	var gate *sim.Cond
	if serial {
		gate = k.NewCond("gate")
	}
	wcfg := CompileConfig{
		Component:   comp,
		Ranks:       ranks,
		Iterations:  iters,
		Placement:   Placement{RankSocket: 0, DeviceSocket: 0},
		Machine:     m,
		Stack:       st,
		Channel:     st,
		StartConds:  startConds,
		CommitConds: commitConds,
		Gate:        gate,
		Barrier:     sim.NewBarrier("wb", ranks),
		Errs:        errs,
	}
	rcfg := wcfg
	rcfg.Component.Name = "r"
	rcfg.Placement = Placement{RankSocket: 1, DeviceSocket: 0}
	rcfg.Barrier = sim.NewBarrier("rb", ranks)

	var writers, readers []*sim.Proc
	for r := 0; r < ranks; r++ {
		writers = append(writers, k.Spawn(fmt.Sprintf("w%d", r), WriterProgram(wcfg, r)))
	}
	for r := 0; r < ranks; r++ {
		readers = append(readers, k.Spawn(fmt.Sprintf("r%d", r), ReaderProgram(rcfg, r)))
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range writers {
		if w.EndTime() > writerEnd {
			writerEnd = w.EndTime()
		}
	}
	_ = readers
	return writerEnd, end, st, errs
}

func TestSerialGatingOrdersComponents(t *testing.T) {
	writerEnd, total, _, errs := runComponents(t, true, 4, 3)
	if err := errs.Err(); err != nil {
		t.Fatal(err)
	}
	if total <= writerEnd {
		t.Fatalf("serial readers finished (%g) before writers (%g)?", total, writerEnd)
	}
	// In serial mode, the reader I/O happens entirely after writerEnd,
	// so total - writerEnd should be a substantial reader phase.
	if total-writerEnd < 0.001 {
		t.Fatalf("no reader phase after writers: %g", total-writerEnd)
	}
}

func TestParallelOverlapsIO(t *testing.T) {
	_, serialTotal, _, _ := runComponents(t, true, 4, 3)
	writerEnd, parallelTotal, _, _ := runComponents(t, false, 4, 3)
	if parallelTotal >= serialTotal {
		t.Fatalf("parallel (%g) not faster than serial (%g) on an uncontended toy workload",
			parallelTotal, serialTotal)
	}
	// Readers stream versions as they are produced, so the run ends
	// quickly after the writers do.
	if parallelTotal-writerEnd > 0.5*(serialTotal-writerEnd) {
		t.Fatalf("parallel reader tail %g too long vs serial reader phase %g",
			parallelTotal-writerEnd, serialTotal-writerEnd)
	}
}

func TestChannelMetadataComplete(t *testing.T) {
	const ranks, iters = 4, 3
	_, _, st, errs := runComponents(t, false, ranks, iters)
	if err := errs.Err(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if got := st.Committed(r); got != iters {
			t.Fatalf("rank %d committed %d, want %d", r, got, iters)
		}
		// One log entry per population per iteration.
		if got := st.LogLen(r); got != iters {
			t.Fatalf("rank %d log length %d, want %d", r, got, iters)
		}
	}
}

func TestReaderDetectsMissingData(t *testing.T) {
	// A reader wired to a channel no writer populated must record an
	// integrity error and terminate rather than hang or succeed: give it
	// pre-published conds so it proceeds straight to the fetch.
	m := platform.Testbed()
	st := nova.Default()
	k := sim.New()
	errs := &ErrorSink{}
	start := k.NewCond("s")
	commit := k.NewCond("c")
	rcfg := CompileConfig{
		Component: ComponentSpec{
			Name:    "r",
			Objects: []ObjectSpec{{Bytes: 1 * units.MiB, CountPerRank: 2}},
		},
		Ranks:       1,
		Iterations:  1,
		Placement:   Placement{RankSocket: 1, DeviceSocket: 0},
		Machine:     m,
		Stack:       st,
		Channel:     st,
		StartConds:  []*sim.Cond{start},
		CommitConds: []*sim.Cond{commit},
		Errs:        errs,
	}
	k.Spawn("pub", ProgramFuncPublish(start, commit))
	k.Spawn("r0", ReaderProgram(rcfg, 0))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if errs.Err() == nil {
		t.Fatal("reader consumed a version nobody wrote without error")
	}
}

// ProgramFuncPublish publishes both conds at t=0 and exits.
func ProgramFuncPublish(conds ...*sim.Cond) sim.Program {
	return sim.ProgramFunc(func(k *sim.Kernel) sim.Stage {
		for _, c := range conds {
			c.Publish(k, 1)
		}
		return nil
	})
}

func TestProfileComponentIOIndex(t *testing.T) {
	// A pure-I/O component must have an I/O index near 1; a
	// compute-dominated one a low index.
	pure := ComponentSpec{
		Name:    "pure-io",
		Objects: []ObjectSpec{{Bytes: 64 * units.MiB, CountPerRank: 4}},
	}
	p, err := ProfileComponent(pure, sim.Write, 4, 3, platform.Testbed(), nova.Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.IOIndex < 0.95 || p.IOIndex > 1.0+1e-9 {
		t.Fatalf("pure I/O index %g", p.IOIndex)
	}

	heavy := pure
	heavy.Name = "compute-heavy"
	heavy.ComputePerIteration = 10
	hp, err := ProfileComponent(heavy, sim.Write, 4, 3, platform.Testbed(), nova.Default())
	if err != nil {
		t.Fatal(err)
	}
	if hp.IOIndex > 0.2 {
		t.Fatalf("compute-heavy I/O index %g", hp.IOIndex)
	}
	if hp.WallSeconds <= p.WallSeconds {
		t.Fatal("compute-heavy run not longer")
	}
	if hp.ComputeSeconds <= 0 || hp.IOSeconds <= 0 {
		t.Fatal("profile missing phase seconds")
	}
}

func TestProfileComponentReadSide(t *testing.T) {
	c := ComponentSpec{
		Name:    "reader",
		Objects: []ObjectSpec{{Bytes: 8 * units.MiB, CountPerRank: 4}},
	}
	p, err := ProfileComponent(c, sim.Read, 4, 2, platform.Testbed(), nova.Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.IOIndex <= 0.9 {
		t.Fatalf("read-only profile index %g", p.IOIndex)
	}
	if p.AchievedBps <= 0 || p.IOPhaseBps < p.AchievedBps {
		t.Fatalf("bandwidth demand accounting: achieved %g, phase %g", p.AchievedBps, p.IOPhaseBps)
	}
}

func TestProfileComponentValidation(t *testing.T) {
	c := ComponentSpec{Name: "bad"}
	if _, err := ProfileComponent(c, sim.Write, 4, 2, platform.Testbed(), nova.Default()); err == nil {
		t.Fatal("invalid component profiled")
	}
	ok := ComponentSpec{Name: "ok", Objects: []ObjectSpec{{Bytes: 1, CountPerRank: 1}}}
	if _, err := ProfileComponent(ok, sim.Write, 0, 2, platform.Testbed(), nova.Default()); err == nil {
		t.Fatal("zero ranks profiled")
	}
	if _, err := ProfileComponent(ok, sim.Write, 99, 2, platform.Testbed(), nova.Default()); err == nil {
		t.Fatal("more ranks than cores profiled")
	}
}

func TestPlacementRemote(t *testing.T) {
	if (Placement{RankSocket: 0, DeviceSocket: 0}).Remote() {
		t.Error("local placement flagged remote")
	}
	if !(Placement{RankSocket: 0, DeviceSocket: 1}).Remote() {
		t.Error("remote placement not flagged")
	}
}

func TestWriterAccountsAllTime(t *testing.T) {
	// Per-rank accounted time (all tags) must equal the rank's end time.
	m := platform.Testbed()
	st := nova.Default()
	k := sim.New()
	cfg := CompileConfig{
		Component: ComponentSpec{
			Name:                "w",
			ComputePerIteration: 0.2,
			Objects:             []ObjectSpec{{Bytes: 16 * units.MiB, CountPerRank: 4}},
		},
		Ranks:      2,
		Iterations: 3,
		Placement:  Placement{RankSocket: 0, DeviceSocket: 0},
		Machine:    m,
		Stack:      st,
		Channel:    st,
		Barrier:    sim.NewBarrier("b", 2),
		Errs:       &ErrorSink{},
	}
	p0 := k.Spawn("w0", WriterProgram(cfg, 0))
	k.Spawn("w1", WriterProgram(cfg, 1))
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, tag := range p0.Tags() {
		sum += p0.TimeIn(tag)
	}
	if math.Abs(sum-end) > 1e-6*end {
		t.Fatalf("accounted %g != end %g", sum, end)
	}
}

var _ stack.Channel = (*nova.FS)(nil)

// BenchmarkCompile measures compiling one component's rank programs:
// the phase plan of each of 24 writer ranks streaming three object
// populations to the remote socket's device.
func BenchmarkCompile(b *testing.B) {
	cfg := CompileConfig{
		Component: ComponentSpec{
			Name:                "sim",
			ComputePerIteration: 0.5,
			Objects: []ObjectSpec{
				{Bytes: 2 * units.KiB, CountPerRank: 64},
				{Bytes: 4 * units.MiB, CountPerRank: 8},
				{Bytes: 64 * units.MiB, CountPerRank: 1},
			},
		},
		Ranks:      24,
		Iterations: 10,
		Placement:  Placement{RankSocket: 0, DeviceSocket: 1},
		Machine:    platform.Testbed(),
		Stack:      nova.Default(),
	}
	var prog sim.Program
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < cfg.Ranks; r++ {
			prog = WriterProgram(cfg, r)
		}
	}
	if prog == nil {
		b.Fatal("no program compiled")
	}
}
