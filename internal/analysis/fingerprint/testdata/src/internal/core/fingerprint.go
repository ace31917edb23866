// Package core is a fingerprint fixture modelling the run engine's
// cache-key file. Import path ends in internal/core, so the analyzer
// is in scope.
package core

import (
	"fmt"
	"io"
	"strings"

	"wf"
)

// writeSpecFingerprint covers every exported Spec field: Name and
// Ranks directly, Component by passing it on.
func writeSpecFingerprint(w io.Writer, s wf.Spec) {
	fmt.Fprintf(w, "wf=%q ranks=%d|", s.Name, s.Ranks)
	writeComponentFingerprint(w, s.Component)
}

// writeComponentFingerprint covers Component fully, reaching Object's
// fields through the range variable.
func writeComponentFingerprint(w io.Writer, c wf.Component) {
	fmt.Fprintf(w, "c=%q comp=%v objs=[", c.Name, c.Compute)
	for _, o := range c.Objects {
		fmt.Fprintf(w, "%dx%d,", o.Bytes, o.Count)
	}
	fmt.Fprint(w, "]|")
}

// writePtrSpecFingerprint reads the spec through a pointer, as the run
// engine's hit-path key writers do, and hands its component on by
// address: selecting the field counts as covering it.
func writePtrSpecFingerprint(w io.Writer, s *wf.Spec) {
	fmt.Fprintf(w, "wf=%q ranks=%d|", s.Name, s.Ranks)
	writePtrComponentFingerprint(w, &s.Component)
}

// writePtrComponentFingerprint: the pointer is unwrapped like a value
// parameter, down through the range variable, so the dropped object
// count is still caught.
func writePtrComponentFingerprint(w io.Writer, c *wf.Component) { // want `writePtrComponentFingerprint does not fold exported field wf\.Object\.Count into the cache key`
	fmt.Fprintf(w, "c=%q comp=%v objs=[", c.Name, c.Compute)
	for _, o := range c.Objects {
		fmt.Fprintf(w, "%d,", o.Bytes)
	}
	fmt.Fprint(w, "]|")
}

// Deployment has gained a new exported field (Added) that the key
// functions below were not updated for — the exact drift the analyzer
// exists to catch.
type Deployment struct {
	Mode      int
	SimSocket int
	AnaSocket int
	Added     int
}

func runKey(env string, s wf.Spec, dep Deployment) string { // want `runKey does not fold exported field core\.Deployment\.Added into the cache key`
	var b strings.Builder
	writeSpecFingerprint(&b, s)
	fmt.Fprintf(&b, "env=%s dep=%d/%d/%d", env, dep.Mode, dep.SimSocket, dep.AnaSocket)
	return b.String()
}

// Meta/Batch: a miss inside a nested slice-of-struct is caught through
// the range variable too.
type Meta struct {
	Label string
	Size  int64
}

type Batch struct {
	Items []Meta
}

func batchKey(w io.Writer, b Batch) { // want `batchKey does not fold exported field core\.Meta\.Size into the cache key`
	for _, m := range b.Items {
		fmt.Fprintf(w, "%s,", m.Label)
	}
}

// Tier mirrors the multi-tier memory spec: a small all-value struct
// whose every field steers the run model, so a key that samples only
// the policy silently conflates differently-sized tiers.
type Tier struct {
	Policy                 int
	DRAMBytesPerRank       int64
	DrainBytesPerSecond    float64
	PromoteAfterIterations int
}

func writeTierFingerprint(w io.Writer, t Tier) { // want `writeTierFingerprint does not fold exported field core\.Tier\.DrainBytesPerSecond into the cache key` `writeTierFingerprint does not fold exported field core\.Tier\.PromoteAfterIterations into the cache key`
	fmt.Fprintf(w, "tier=%d dram=%d|", t.Policy, t.DRAMBytesPerRank)
}

// tierKey covers the whole tier struct, field for field.
func tierKey(w io.Writer, t Tier) {
	fmt.Fprintf(w, "tier=%d dram=%d drain=%g promote=%d|",
		t.Policy, t.DRAMBytesPerRank, t.DrainBytesPerSecond, t.PromoteAfterIterations)
}

// legacyKey documents an audited exception: Added is deliberately
// excluded, and the directive says why.
//
//pmemlint:ignore fingerprint Added is display-only metadata, never affects a Result
func legacyKey(w io.Writer, d Deployment) {
	fmt.Fprintf(w, "%d/%d/%d", d.Mode, d.SimSocket, d.AnaSocket)
}

// format is not a key function (name matches neither pattern), so its
// partial field use is fine.
func format(d Deployment) string {
	return fmt.Sprintf("mode=%d", d.Mode)
}
