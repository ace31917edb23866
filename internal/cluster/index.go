package cluster

import "fmt"

// The free-capacity index.
//
// Every scheduling pass asks "which is the lowest-ID node with room
// for R ranks?". Scanning each node's resident list to answer it costs
// a pass the whole fleet's residents; at 1,000 nodes that dominates the
// simulation. freeIndex keeps one structural free-core count per node
// (capacity minus the ranks of every resident, zero while down), so a
// first-fit query is a walk over one dense int array that stops at the
// first node with room — deterministically the node the linear scan
// over the views would pick, since ties have always broken toward the
// lower ID.
//
// The index answers queries about the *current* instant only. Future
// capacity ("when do R cores free up?") still walks resident end
// times, but only after the index has said nothing fits now — the
// saturated-cluster case, where a full scan is unavoidable anyway.
//
// Policies charge their tentative placements to the index during a
// scheduling pass. The first placement on a node clones its view and
// records the node's count beside the clone (SchedContext.node); after
// the policy returns the engine restores each cloned node's view entry
// and count together, then re-applies the committed placements, so the
// authoritative counts never drift. The metrics integrate and sample
// Cores minus these counts, so occupancy is never kept twice.

// freeIndex is the free-capacity view over all nodes.
type freeIndex struct {
	cores int   // per-socket capacity; free ranges over [0, cores]
	free  []int // structural free cores per node (0 while down)
}

func newFreeIndex(nodes, cores int) *freeIndex {
	ix := &freeIndex{cores: cores, free: make([]int, nodes)}
	for id := range ix.free {
		ix.free[id] = cores
	}
	return ix
}

// add appends one fresh (fully free) node and returns its ID. The
// incremental State store registers nodes one at a time.
func (ix *freeIndex) add() int {
	ix.free = append(ix.free, ix.cores)
	return len(ix.free) - 1
}

// setFree sets the node's free-core count. A count outside [0, cores]
// means the index has drifted from the node views — a placement the
// views allowed but the index could not hold — and panics naming the
// node, rather than letting the drift pass unnoticed.
func (ix *freeIndex) setFree(node, f int) {
	if f < 0 || f > ix.cores {
		panic(fmt.Sprintf("cluster: free-capacity index drifted: node %d would hold %d free cores (capacity %d)", node, f, ix.cores))
	}
	ix.free[node] = f
}

// place charges ranks cores on the node.
func (ix *freeIndex) place(node, ranks int) { ix.setFree(node, ix.free[node]-ranks) }

// remove returns ranks cores to the node.
func (ix *freeIndex) remove(node, ranks int) { ix.setFree(node, ix.free[node]+ranks) }

// down zeroes the node's capacity (its residents are killed by the
// fault path, which clears the resident list wholesale).
func (ix *freeIndex) down(node int) { ix.setFree(node, 0) }

// up restores the node's full capacity (a repaired node is empty).
func (ix *freeIndex) up(node int) { ix.setFree(node, ix.cores) }

// eachFit calls yield for every node other than skip with at least
// ranks free cores, in ascending ID order; yield returning false stops
// the walk. skip < 0 skips nothing.
func (ix *freeIndex) eachFit(ranks, skip int, yield func(id int) bool) {
	for id, f := range ix.free {
		if f >= ranks && id != skip && !yield(id) {
			return
		}
	}
}
