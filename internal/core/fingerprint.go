package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"

	"pmemsched/internal/workflow"
)

// Content-keyed fingerprints for the run engine's result cache. A cache
// key identifies everything that determines a run's outcome: the
// workflow spec, the deployment, and the environment (machine topology,
// device model, storage-stack cost model). Two runs with equal keys are
// guaranteed to produce identical Results because the simulation is
// deterministic and every run gets a fresh machine and stack.
//
// The per-request keys (run, classify, dag) sit on the runner's hit
// path, so they are built without fmt, strconv or any allocation: a
// keyWriter hashes a canonical encoding of the inputs one 64-bit word
// at a time. Every value is self-delimiting, so two different inputs
// never encode to the same word stream:
//   - the key opens with its family tag ('r', 'c' or 'd');
//   - integers, and floats through math.Float64bits, are one word each
//     (so -0 and +0 stay distinct);
//   - strings are their byte length followed by their bytes, packed
//     eight to a little-endian word, the last word zero-padded;
//   - every slice is its element count followed by its elements.
// Each word costs one xxHash64 round, and sum applies xxHash64's
// avalanche. Keys live only in memory; nothing persists or compares
// their values across builds.

// stackProbeSizes sample the stack cost model for fingerprinting. The
// provided stacks' costs are affine in object size, so two probe points
// per curve pin the model exactly; the extra sizes also capture
// access-size granularity switches (e.g. NOVA's block rounding).
var stackProbeSizes = []int64{1, 512, 4 << 10, 64 << 10, 1 << 20, 64 << 20}

// fingerprint derives the environment's cache identity by building one
// machine and one stack instance and hashing their observable
// parameters. Environments that construct structurally identical
// machines and stacks share cache entries; environments that differ in
// behaviour but not in probed structure (e.g. a fault-injecting stack
// wrapping a stock one) must set Env.Tag to stay distinct. It runs once
// per Runner, off the hit path, so it keeps the readable fmt form; the
// writes go to a hash, which cannot fail.
func (e Env) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "tag=%s|", e.Tag)
	m := e.machine()
	fmt.Fprintf(h, "sockets=%d|upi=%v|", len(m.Topology.Sockets), m.Topology.UPI.Capacity())
	for _, s := range m.Topology.Sockets {
		fmt.Fprintf(h, "s%d{cores=%d dram=%v}|", s.ID, s.Cores, s.DRAM.Capacity())
	}
	for i, d := range m.PMEM {
		// The device model is a plain struct of calibration constants;
		// %v renders every field with round-trip float precision.
		fmt.Fprintf(h, "pmem%d=%v|", i, d.Model())
	}
	for i, d := range m.DRAM {
		fmt.Fprintf(h, "dram%d=%v|", i, d.Model())
	}
	st := e.stack()
	fmt.Fprintf(h, "stack=%s|", st.Name())
	for _, size := range stackProbeSizes {
		fmt.Fprintf(h, "c%d={w=%v r=%v a=%d}|", size, st.WriteCost(size), st.ReadCost(size), st.AccessSize(size))
	}
	return h.Sum64()
}

// cacheKey is a memo key: the key family and the 64-bit content hash.
// It is comparable and fixed-size, so map lookups by it allocate
// nothing.
type cacheKey struct {
	kind byte
	h    uint64
}

// The key families. Each tag opens its family's byte stream and is
// carried in cacheKey.kind, so families can never collide.
const (
	kindRun      byte = 'r'
	kindClassify byte = 'c'
	kindDAG      byte = 'd'
)

// xxHash64's primes.
const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
)

// keyWriter hashes the canonical encoding described at the top of this
// file. It is a plain value: no interface dispatch and no heap state.
type keyWriter struct {
	kind byte
	h    uint64
}

func newKeyWriter(kind byte) keyWriter {
	w := keyWriter{kind: kind, h: xxPrime5}
	w.u8(kind)
	return w
}

// u8 mixes one byte, as xxHash64 mixes a trailing byte.
func (w *keyWriter) u8(b byte) {
	w.h ^= uint64(b) * xxPrime5
	w.h = bits.RotateLeft64(w.h, 11) * xxPrime1
}

// u64 mixes one word with one xxHash64 round.
func (w *keyWriter) u64(v uint64) {
	v = bits.RotateLeft64(v*xxPrime2, 31) * xxPrime1
	w.h = bits.RotateLeft64(w.h^v, 27)*xxPrime1 + xxPrime4
}

func (w *keyWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *keyWriter) f64(f float64) { w.u64(math.Float64bits(f)) }

// str writes the length, then the bytes eight to a little-endian word;
// the length tells a zero pad byte from a zero string byte.
func (w *keyWriter) str(s string) {
	w.i64(int64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		w.u64(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var v uint64
		for i := len(s) - 1; i >= 0; i-- {
			v = v<<8 | uint64(s[i])
		}
		w.u64(v)
	}
}

// sum applies xxHash64's avalanche, so every input bit reaches every
// key bit.
func (w *keyWriter) sum() cacheKey {
	h := w.h
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return cacheKey{kind: w.kind, h: h}
}

// writeSpecFingerprint encodes every Result-affecting field of the
// spec in a fixed order (including Name, which Results carry verbatim).
// The spec, like the component below, is read through a pointer: the
// run and classify keys sit on the runner's hit path, and a by-value
// spec costs a copy per call.
func writeSpecFingerprint(w *keyWriter, s *workflow.Spec) {
	w.str(s.Name)
	w.i64(int64(s.Ranks))
	w.i64(int64(s.Iterations))
	writeComponentFingerprint(w, &s.Simulation)
	writeComponentFingerprint(w, &s.Analytics)
	writeTierFingerprint(w, s.Tier)
}

// writeTierFingerprint encodes every Result-affecting field of a tier
// spec. It is written for the zero (pmem-only) spec too: the encoding
// has a fixed layout, with no optional parts.
func writeTierFingerprint(w *keyWriter, t workflow.TierSpec) {
	w.i64(int64(t.Policy))
	w.i64(t.DRAMBytesPerRank)
	w.f64(t.DrainBytesPerSecond)
	w.i64(int64(t.PromoteAfterIterations))
}

// writeComponentFingerprint encodes one component. Its position in the
// enclosing key (simulation before analytics) names its role.
func writeComponentFingerprint(w *keyWriter, c *workflow.ComponentSpec) {
	w.str(c.Name)
	w.f64(c.ComputePerIteration)
	w.f64(c.ComputePerObject)
	w.f64(c.ComputeJitter)
	w.i64(int64(len(c.Objects)))
	for _, o := range c.Objects {
		w.i64(o.Bytes)
		w.i64(int64(o.CountPerRank))
	}
}

// writeDAGSpecFingerprint encodes every prediction-affecting field of
// a DAG spec in declaration order.
func writeDAGSpecFingerprint(w *keyWriter, d workflow.DAGSpec) {
	w.str(d.Name)
	w.i64(int64(d.Iterations))
	w.i64(int64(len(d.Stages)))
	for _, s := range d.Stages {
		w.str(s.Name)
		w.i64(int64(s.Ranks))
		writeComponentFingerprint(w, &s.Component)
		writeTierFingerprint(w, s.Tier)
	}
	w.i64(int64(len(d.Edges)))
	for _, e := range d.Edges {
		w.str(e.From)
		w.str(e.To)
		w.str(string(e.Type))
	}
}

// writeAssignmentFingerprint encodes a per-stage assignment
// (index-aligned with the DAG's stages, so stage identity is
// positional).
func writeAssignmentFingerprint(w *keyWriter, a DAGAssignment) {
	w.i64(int64(len(a.Stages)))
	for _, sc := range a.Stages {
		w.i64(int64(sc.Ranks))
		w.i64(int64(sc.Mode))
		w.i64(int64(sc.Place))
		w.str(sc.Stack)
		writeTierFingerprint(w, sc.Tier)
	}
}

// dagKey builds the memo key of one whole-DAG prediction. Stack names
// stand in for stack environments, so the key is sound within one
// tuning run (where DAGOptions is fixed), which is the only cache it
// feeds.
func dagKey(env uint64, d workflow.DAGSpec, asg DAGAssignment) cacheKey {
	w := newKeyWriter(kindDAG)
	w.u64(env)
	writeDAGSpecFingerprint(&w, d)
	writeAssignmentFingerprint(&w, asg)
	return w.sum()
}

// runKey builds the cache key of one execution.
func runKey(env uint64, wf *workflow.Spec, dep Deployment) cacheKey {
	w := newKeyWriter(kindRun)
	w.u64(env)
	writeSpecFingerprint(&w, wf)
	w.i64(int64(dep.Mode))
	w.i64(int64(dep.SimSocket))
	w.i64(int64(dep.AnaSocket))
	w.i64(int64(dep.DeviceSocket))
	return w.sum()
}

// classifyKey builds the cache key of one profiling+classification.
func classifyKey(env uint64, wf *workflow.Spec) cacheKey {
	w := newKeyWriter(kindClassify)
	w.u64(env)
	writeSpecFingerprint(&w, wf)
	return w.sum()
}
