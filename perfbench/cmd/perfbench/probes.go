package main

import (
	"fmt"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/pmem"
	"pmemsched/internal/workloads"
)

// capsSink keeps the probe's Caps results live so the calls are not
// optimized away.
var capsSink float64

// capsCensus is the fixed set of load censuses the device-curve probe
// evaluates: read, write and mixed loads from one to 24 streams, large
// and small accesses, local and remote.
func capsCensus() []pmem.Load {
	var out []pmem.Load
	for _, n := range []int{1, 2, 4, 8, 16, 24} {
		f := float64(n)
		out = append(out,
			pmem.Load{LocalReads: f, RawReads: n},
			pmem.Load{LocalWrites: f, RawWrites: n},
			pmem.Load{RemoteReads: f / 2, LocalWrites: f / 2, RawReads: n / 2, RawWrites: n / 2},
			pmem.Load{LocalReads: f, SmallReads: f, RawReads: n, RawSmall: n},
			pmem.Load{RemoteWrites: f, SmallWrites: f, RawWrites: n, RawSmall: n},
		)
	}
	return out
}

// probePMEM times direct pmem.Model.Caps calls over the census at two
// write pressures and reports nanoseconds per call.
func probePMEM(m map[string]metric, tr *tracer) {
	model := pmem.Gen1Optane()
	census := capsCensus()
	id := tr.begin("pmem.Model.Caps", -1, "pmem-probe")
	calls := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, l := range census {
			for _, p := range []float64{0, 0.6} {
				c := model.Caps(l, p)
				capsSink += c.Read + c.Write
				calls++
			}
		}
	}
	took := time.Since(start)
	tr.end(id)
	m["pmem.caps_ns"] = metric{float64(took.Nanoseconds()) / float64(calls), "ns"}
}

// probeKernel runs every suite workload under every Table I
// configuration through core.RunDeployment: once traced, for the exact
// stage and byte counts, then untraced three times, for the kernel's
// time (the median pass). The time includes workflow compile and
// device evaluation, which only in-program tracing can split out.
func probeKernel(m map[string]metric, tr *tracer, t *tally) error {
	env := core.DefaultEnv()
	root := tr.begin("kernel-probe", -1, "kernel-probe")
	stages, transfers := 0, 0
	bytes := 0.0
	want := map[string]float64{}
	for _, wf := range workloads.Suite() {
		for _, cfg := range core.Configs {
			req := wf.Name + "/" + cfg.Label()
			id := tr.begin("core.RunDeployment", root, req)
			res, kt, err := core.RunDeployment(wf, cfg.Deployment(), env, true)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("kernel probe: %s: %w", req, err)
			}
			want[req] = res.TotalSeconds
			for _, ev := range kt.Events {
				stages++
				if ev.Kind == "transfer" {
					transfers++
					bytes += ev.Bytes
				}
			}
		}
	}
	tr.end(root)
	var passes []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		for _, wf := range workloads.Suite() {
			for _, cfg := range core.Configs {
				res, _, err := core.RunDeployment(wf, cfg.Deployment(), env, false)
				req := wf.Name + "/" + cfg.Label()
				t.op(err == nil && res.TotalSeconds == want[req],
					"kernel probe: %s untraced %g s (%v), traced %g s", req, res.TotalSeconds, err, want[req])
			}
		}
		passes = append(passes, ms(time.Since(start)))
	}
	run := median(passes)
	m["pmem.transfer_stages"] = metric{float64(transfers), "count"}
	m["pmem.bytes_moved"] = metric{bytes, "B"}
	m["sim.stages"] = metric{float64(stages), "count"}
	m["sim.run_ms"] = metric{run, "ms"}
	m["sim.ns_per_stage"] = metric{run * 1e6 / float64(stages), "ns"}
	return nil
}
