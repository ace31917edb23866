package cluster

import (
	"fmt"
	"math"
	"strings"

	"pmemsched/internal/core"
)

// Policy decides which pending jobs start at the current scheduling
// point. It is consulted after every state change (arrival or
// completion) and returns placements for jobs that start now; jobs it
// leaves in the queue wait for the next event.
//
// Policies must be deterministic functions of the context: no wall
// clock, no global randomness, no map iteration (pmemlint enforces all
// three in this package).
type Policy interface {
	Name() string
	Schedule(ctx *SchedContext) ([]Placement, error)
}

// FCFS is strict first-come-first-served under one fixed site-wide
// configuration: jobs start in arrival order on the lowest-ID node
// with enough free cores, and a blocked head-of-queue blocks everyone
// behind it. This is the baseline discipline of batch schedulers with
// backfilling disabled.
func FCFS(cfg core.Config) Policy {
	return &listPolicy{name: "fcfs/" + cfg.Label(), fixed: &cfg}
}

// EASY is FCFS with EASY backfilling (Lifka's argonne scheduler): when
// the head of the queue does not fit, it gets a reservation at the
// earliest time enough cores free up, and later jobs may jump ahead
// only if doing so cannot delay that reservation. All jobs run under
// one fixed site-wide configuration.
func EASY(cfg core.Config) Policy {
	return &listPolicy{name: "easy/" + cfg.Label(), fixed: &cfg, backfill: true}
}

// PMEMAware is EASY backfilling with per-job configuration decisions:
// each job runs under the configuration Table II recommends for it
// (profiling and classification memoized by the run engine) instead of
// a site-wide default. The queueing discipline is identical to EASY, so
// any metric difference against a fixed policy isolates the value of
// PMEM-aware per-workflow configuration — the scheduler the paper's
// conclusions call for.
func PMEMAware() Policy {
	return &listPolicy{name: "pmem-aware", backfill: true}
}

// EASYInterferenceAware is EASY whose node choice minimizes projected
// PMEM oversubscription: among the nodes with enough free cores, a job
// goes to the one where its device socket's combined bandwidth demand
// overshoots its budget the least — avoiding co-placing two
// bandwidth-bound jobs whenever an alternative node exists. With the
// interference model disabled it degrades to plain EASY (lowest-ID
// first fit).
func EASYInterferenceAware(cfg core.Config) Policy {
	return &listPolicy{name: "easy-i/" + cfg.Label(), fixed: &cfg, backfill: true, aware: true}
}

// PMEMAwareInterferenceAware combines per-job Table II configurations
// with interference-aware node choice: the full scheduler the
// interference experiment evaluates.
func PMEMAwareInterferenceAware() Policy {
	return &listPolicy{name: "pmem-aware-i", backfill: true, aware: true}
}

// Policies returns the selectable policy set for a fixed configuration:
// the three disciplines the CLI and the online experiment expose.
func Policies(fixed core.Config) []Policy {
	return []Policy{FCFS(fixed), EASY(fixed), PMEMAware()}
}

// ParsePolicy resolves a CLI policy name: "fcfs", "easy", "pmem-aware",
// or the interference-aware variants "easy-i" and "pmem-aware-i", where
// fixed supplies the site-wide configuration of the fixed-config
// disciplines.
func ParsePolicy(name string, fixed core.Config) (Policy, error) {
	switch strings.ToLower(name) {
	case "fcfs":
		return FCFS(fixed), nil
	case "easy":
		return EASY(fixed), nil
	case "pmem-aware", "pmem":
		return PMEMAware(), nil
	case "easy-i":
		return EASYInterferenceAware(fixed), nil
	case "pmem-aware-i", "pmem-i":
		return PMEMAwareInterferenceAware(), nil
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (want fcfs, easy, pmem-aware, easy-i or pmem-aware-i)", name)
}

// listPolicy is the shared list-scheduling core: arrival-order scan,
// optional EASY backfill, either a fixed configuration or per-job
// Table II recommendations, and either first-fit or interference-aware
// node choice.
type listPolicy struct {
	name     string
	fixed    *core.Config // nil: ask the estimator for a recommendation
	backfill bool
	aware    bool // minimize projected PMEM oversubscription when picking nodes
}

func (p *listPolicy) Name() string { return p.name }

// config picks the job's configuration under this policy.
func (p *listPolicy) config(ctx *SchedContext, j *Job) (core.Config, error) {
	if p.fixed != nil {
		return *p.fixed, nil
	}
	return recommendJob(ctx.Est, j)
}

// profile fetches the job's PMEM-demand profile when the interference
// model is on (so the snapshot's demand accounting stays correct across
// a pass) and returns the zero profile otherwise.
func (p *listPolicy) profile(ctx *SchedContext, j *Job, cfg core.Config) (JobProfile, error) {
	if !ctx.Model.Enabled {
		return JobProfile{}, nil
	}
	prof, err := profileJob(ctx.Est, j, cfg)
	if err != nil {
		return JobProfile{}, fmt.Errorf("cluster: %s: profiling job %d (%s): %w", p.name, j.ID, j.Workflow.Name, err)
	}
	return prof, nil
}

// pick chooses a node for the job: lowest-ID first fit normally, and
// for the aware variants the fitting node whose projected
// device-socket overload is smallest (ties to the lower ID), so two
// bandwidth-bound jobs are not co-placed while an uncontended node
// exists. The aware variants are also failure-aware: a retried job is
// steered away from the node whose failure killed it (a down node has
// no capacity at all; this soft constraint extends the avoidance
// through the repair, when the job may still be waiting out its
// backoff) unless no other node fits. Returns -1 when no node fits.
func (p *listPolicy) pick(ctx *SchedContext, j *Job, prof JobProfile) int {
	ranks, dram := j.Workflow.Ranks, jobDRAMBytes(j)
	if !p.aware {
		return ctx.firstFit(ranks, dram, -1)
	}
	if !ctx.Model.Enabled {
		// No interference model: still avoid the failed node, preferring
		// the lowest-ID alternative, with first fit as the fallback.
		if away := ctx.AvoidNode(j.ID); away >= 0 {
			if id := ctx.firstFit(ranks, dram, away); id >= 0 {
				return id
			}
		}
		return ctx.firstFit(ranks, dram, -1)
	}
	// The overload floor: the job's score on an idle socket. Demand only
	// adds and overloadAll never falls as demand grows, so while every
	// demand in play is regular no node scores below the floor, and the
	// scan stops at the first node that reaches it — ties keep the first
	// node visited anyway. Irregular demands keep the full scan.
	floor := math.Inf(-1)
	if ctx.residentsRegular && prof.regularDemand() {
		floor = ctx.Model.overloadAll(prof.ReadBytesPerSecond, prof.WriteBytesPerSecond,
			prof.DRAMReadBytesPerSecond, prof.DRAMWriteBytesPerSecond)
	}
	pickBy := func(skip int) (int, float64) {
		best, bestScore := -1, inf()
		ctx.eachFit(ranks, dram, skip, func(n *NodeView) bool {
			if score := n.OverloadAfter(ctx.Model, prof); score < bestScore {
				best, bestScore = n.ID, score
				return score > floor
			}
			return true
		})
		return best, bestScore
	}
	if away := ctx.AvoidNode(j.ID); away >= 0 {
		if best, _ := pickBy(away); best >= 0 {
			return best
		}
	}
	best, _ := pickBy(-1)
	return best
}

// Schedule walks the queue by index, reading each job in place, and
// appends to the context's placement buffer, which it hands back grown
// for the engine's next pass.
func (p *listPolicy) Schedule(ctx *SchedContext) ([]Placement, error) {
	placed := ctx.placed[:0]
	for i := range ctx.Queue {
		head := &ctx.Queue[i]
		cfg, err := p.config(ctx, head)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: configuring job %d (%s): %w", p.name, head.ID, head.Workflow.Name, err)
		}
		prof, err := p.profile(ctx, head, cfg)
		if err != nil {
			return nil, err
		}
		if node := p.pick(ctx, head, prof); node >= 0 {
			dur, err := estimateJob(ctx.Est, head, cfg)
			if err != nil {
				return nil, fmt.Errorf("cluster: %s: estimating job %d (%s): %w", p.name, head.ID, head.Workflow.Name, err)
			}
			placed = append(placed, ctx.place(head, node, cfg, dur, prof))
			continue
		}
		// Head blocked: without backfilling nothing behind it may start.
		if p.backfill {
			if placed, err = p.backfillBehind(ctx, head, ctx.Queue[i+1:], placed); err != nil {
				return nil, err
			}
		}
		break
	}
	ctx.placed = placed
	return placed, nil
}

// backfillBehind gives the blocked head a reservation at the earliest
// time its cores free up and starts later jobs that provably cannot
// delay it: a job may backfill if it fits now and either finishes
// before the reservation, runs on a different node, or leaves the
// reserved node with enough cores at the reservation time. It appends
// the backfilled placements to placed.
func (p *listPolicy) backfillBehind(ctx *SchedContext, head *Job, rest []Job, placed []Placement) ([]Placement, error) {
	shadow, reserved := ctx.earliestFit(head.Workflow.Ranks, jobDRAMBytes(head))
	if reserved < 0 {
		return nil, fmt.Errorf("cluster: %s: job %d (%s) needs %d ranks but no node can ever fit it",
			p.name, head.ID, head.Workflow.Name, head.Workflow.Ranks)
	}
	for i := range rest {
		j := &rest[i]
		cfg, err := p.config(ctx, j)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: configuring job %d (%s): %w", p.name, j.ID, j.Workflow.Name, err)
		}
		prof, err := p.profile(ctx, j, cfg)
		if err != nil {
			return nil, err
		}
		node := p.pick(ctx, j, prof)
		if node < 0 {
			continue
		}
		dur, err := estimateJob(ctx.Est, j, cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: estimating job %d (%s): %w", p.name, j.ID, j.Workflow.Name, err)
		}
		end := ctx.Now + dur
		// Would this placement still leave the head's reservation intact?
		if end > shadow && node == reserved && !reservationIntact(ctx.Nodes[reserved], shadow, head, j) {
			continue
		}
		placed = append(placed, ctx.place(j, node, cfg, dur, prof))
	}
	return placed, nil
}

// reservationIntact reports whether the head's reservation at the
// shadow time survives the backfill job j still running then on the
// reserved node: enough cores, and — when the head holds DRAM resident
// on a DRAM-modeled cluster — enough DRAM too.
func reservationIntact(n *NodeView, shadow float64, head, j *Job) bool {
	if n.FreeAt(shadow)-j.Workflow.Ranks < head.Workflow.Ranks {
		return false
	}
	hd := jobDRAMBytes(head)
	if hd <= 0 || n.DRAMBytes <= 0 {
		return true
	}
	return n.DRAMFreeAt(shadow)-jobDRAMBytes(j) >= hd
}
