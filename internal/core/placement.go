package core

import (
	"fmt"

	"pmemsched/internal/numa"
	"pmemsched/internal/workflow"
)

// DeploymentResult pairs a deployment with its measured runtime.
type DeploymentResult struct {
	Deployment Deployment
	Result     Result
}

// PlacementDecision is the outcome of an exhaustive placement search
// on an N-socket machine.
type PlacementDecision struct {
	Workflow string
	Results  []DeploymentResult
	Best     DeploymentResult
}

// PlacementOracle searches the full deployment space of a machine with
// the given socket count: both execution modes × every ordered pair of
// distinct component sockets × every channel socket, including
// channels local to neither component (which the paper's Fig 2
// excludes a priori — the search lets that exclusion be validated
// rather than assumed: a both-remote channel pays remote penalties on
// both sides and never wins).
//
// The environment's machine must have at least sockets sockets. Runs
// on a fresh run engine; use Runner.PlacementOracle to share pool and
// cache.
func PlacementOracle(wf workflow.Spec, env Env, sockets int) (PlacementDecision, error) {
	return NewRunner(env, 0).PlacementOracle(wf, sockets)
}

// deploymentSpace enumerates the search space in its canonical order:
// mode-major, then simulation, analytics and channel sockets.
func deploymentSpace(sockets int) []Deployment {
	var deps []Deployment
	for _, mode := range []Mode{Serial, Parallel} {
		for simS := 0; simS < sockets; simS++ {
			for anaS := 0; anaS < sockets; anaS++ {
				if simS == anaS {
					continue
				}
				for devS := 0; devS < sockets; devS++ {
					deps = append(deps, Deployment{
						Mode:         mode,
						SimSocket:    numa.SocketID(simS),
						AnaSocket:    numa.SocketID(anaS),
						DeviceSocket: numa.SocketID(devS),
					})
				}
			}
		}
	}
	return deps
}

// PlacementOracle searches the deployment space on the engine: every
// deployment runs as one batch, and the winner is selected by scanning
// the canonical enumeration order, so ties break deterministically
// toward the earlier deployment. On a socket-symmetric environment the
// batch simulates only the six orbit representatives (2 modes × 3
// channel localities) and the other deployments are cache hits; every
// deployment still gets its own entry in Results, equal to its literal
// run (see RunDeployment).
func (r *Runner) PlacementOracle(wf workflow.Spec, sockets int) (PlacementDecision, error) {
	if sockets < 2 {
		return PlacementDecision{}, fmt.Errorf("core: placement search needs >= 2 sockets, got %d", sockets)
	}
	deps := deploymentSpace(sockets)
	jobs := make([]Job, len(deps))
	for i, dep := range deps {
		jobs[i] = Job{Workflow: wf, Deployment: dep}
	}
	results, err := r.RunBatch(jobs)
	if err != nil {
		return PlacementDecision{}, err
	}
	dec := PlacementDecision{Workflow: wf.Name}
	for i, dep := range deps {
		dr := DeploymentResult{Deployment: dep, Result: results[i]}
		dec.Results = append(dec.Results, dr)
		if dec.Best.Result.TotalSeconds == 0 || dr.Result.TotalSeconds < dec.Best.Result.TotalSeconds {
			dec.Best = dr
		}
	}
	return dec, nil
}

// ChannelLocality classifies where a deployment's channel sits
// relative to its components.
type ChannelLocality uint8

const (
	// ChannelLocalToSim: local writes, remote reads (LocW).
	ChannelLocalToSim ChannelLocality = iota
	// ChannelLocalToAna: remote writes, local reads (LocR).
	ChannelLocalToAna
	// ChannelRemoteToBoth: the channel sits on a third socket.
	ChannelRemoteToBoth
)

func (l ChannelLocality) String() string {
	switch l {
	case ChannelLocalToSim:
		return "local-to-simulation"
	case ChannelLocalToAna:
		return "local-to-analytics"
	default:
		return "remote-to-both"
	}
}

// Locality classifies the deployment's channel placement.
func (d Deployment) Locality() ChannelLocality {
	switch d.DeviceSocket {
	case d.SimSocket:
		return ChannelLocalToSim
	case d.AnaSocket:
		return ChannelLocalToAna
	default:
		return ChannelRemoteToBoth
	}
}
