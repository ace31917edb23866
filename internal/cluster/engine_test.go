package cluster

import (
	"container/heap"
	"math/rand"
	"testing"

	"pmemsched/internal/core"
)

// refHeap is the event heap through container/heap, the reference the
// typed heap must match pop for pop.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(a, b int) bool { return h[a].before(&h[b]) }
func (h refHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapMatchesContainerHeap interleaves random adds and pops on
// the typed heap and on container/heap. Times, kinds, IDs and epochs
// are drawn from small sets, so ties at every level of the order — and
// whole duplicate events — are common; every pop must return the same
// event, and the two arrays must hold the same layout throughout.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var typed eventHeap
		var ref refHeap
		for op := 0; op < 300; op++ {
			if len(typed) > 0 && rng.Intn(3) == 0 {
				got, want := typed.next(), heap.Pop(&ref).(event)
				if got != want {
					t.Fatalf("trial %d op %d: popped %+v, container/heap %+v", trial, op, got, want)
				}
			} else {
				e := event{at: float64(rng.Intn(6)), kind: eventKind(rng.Intn(4)), job: rng.Intn(5), epoch: rng.Intn(3)}
				typed.add(e)
				heap.Push(&ref, e)
			}
			if len(typed) != len(ref) {
				t.Fatalf("trial %d op %d: %d events, container/heap %d", trial, op, len(typed), len(ref))
			}
			for i := range typed {
				if typed[i] != ref[i] {
					t.Fatalf("trial %d op %d: slot %d holds %+v, container/heap %+v", trial, op, i, typed[i], ref[i])
				}
			}
		}
	}
}

// checkViewRestored demands that between passes the engine's policy
// view aliases its nodes entry for entry, so no node reads as cloned:
// the pass restores exactly what it cloned.
func checkViewRestored(t *testing.T, label string, e *engine) {
	t.Helper()
	if len(e.view) != len(e.nodes) || len(e.clones) != len(e.nodes) || len(e.idx.free) != len(e.nodes) {
		t.Fatalf("%s: %d nodes, %d view entries, %d clone slots, %d index counts",
			label, len(e.nodes), len(e.view), len(e.clones), len(e.idx.free))
	}
	for i, n := range e.nodes {
		if e.view[i] != n {
			t.Fatalf("%s: node %d: view entry %p (clone slot %p), node %p", label, i, e.view[i], &e.clones[i], n)
		}
	}
}

// TestViewRestoredAfterEveryPass steps engines through seeded traces —
// with and without the interference and fault models, so passes clone
// nodes, place on them and see them fail — and checks the view after
// every instant.
func TestViewRestoredAfterEveryPass(t *testing.T) {
	catalog, est := propertyCatalog()
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"easy", Options{Nodes: 6, CoresPerSocket: 8, Policy: EASY(core.SLocW), Estimator: est}},
		{"pmem-aware-i", Options{Nodes: 6, CoresPerSocket: 8, Policy: PMEMAwareInterferenceAware(), Estimator: est,
			Interference: DefaultInterference()}},
		{"faults", Options{Nodes: 6, CoresPerSocket: 8, Policy: EASYInterferenceAware(core.SLocW), Estimator: est,
			Faults: RandomFaults(40, 5, 3), Retry: RetryPolicy{MaxAttempts: 3, BackoffSeconds: 1, BackoffFactor: 2}}},
	} {
		tr, err := Synthetic(catalog, SyntheticConfig{Jobs: 120, MeanInterarrivalSeconds: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		e, err := newEngine(c.opt)
		if err != nil {
			t.Fatal(err)
		}
		e.src = tr.Source()
		if err := e.pull(); err != nil {
			t.Fatal(err)
		}
		for e.src != nil || e.finished < len(e.states) {
			head, ok := e.events.peek()
			if !ok {
				t.Fatalf("%s: events ran out with %d of %d jobs finished", c.name, e.finished, len(e.states))
			}
			if _, err := e.step(head.at, false); err != nil {
				t.Fatal(err)
			}
			checkViewRestored(t, c.name, e)
		}
		if e.passes == 0 {
			t.Fatalf("%s: no pass ran", c.name)
		}
	}
}

// TestStateViewCoversAddedNodes checks the view of a placement store
// whose fleet grows between passes: a node AddNode registers is in the
// view at once, and passes over it leave the view restored.
func TestStateViewCoversAddedNodes(t *testing.T) {
	catalog, est := propertyCatalog()
	s, err := NewState(Options{CoresPerSocket: 8, Policy: PMEMAwareInterferenceAware(), Estimator: est,
		Interference: DefaultInterference()})
	if err != nil {
		t.Fatal(err)
	}
	wf := catalog[2] // 4 ranks: two fit a node, so every round leaves one queued
	for round := 0; round < 4; round++ {
		s.AddNode()
		checkViewRestored(t, "after AddNode", s.e)
		for k := 0; k < 3; k++ {
			if _, err := s.Submit(wf, s.Now()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Schedule(); err != nil {
			t.Fatal(err)
		}
		checkViewRestored(t, "after Schedule", s.e)
		if _, err := s.AdvanceTo(s.Now() + 5); err != nil {
			t.Fatal(err)
		}
		checkViewRestored(t, "after AdvanceTo", s.e)
	}
	if len(s.Snapshot().Nodes) != 4 {
		t.Fatalf("store has %d nodes, want 4", len(s.Snapshot().Nodes))
	}
}
