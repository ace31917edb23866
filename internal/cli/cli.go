// Package cli holds the helpers the command-line front ends share:
// writing human-facing lines to a stdout/stderr stream, resolving the
// -stack flag, and stamping a BENCH document with the machine and
// toolchain that produced it.
package cli

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"pmemsched/internal/core"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/stack/nvstream"
)

// Sayln writes one line to a CLI stream. A write failure on a
// command's stdout or stderr (a closed pipe, usually) has no recovery
// path and nowhere further to report, so the result is deliberately
// discarded. Call sites producing a command's actual deliverable — a
// report, a JSON document — should write and check directly instead.
func Sayln(w io.Writer, a ...any) { _, _ = fmt.Fprintln(w, a...) }

// Sayf is Sayln's Printf-shaped sibling (no implicit newline).
func Sayf(w io.Writer, format string, a ...any) { _, _ = fmt.Fprintf(w, format, a...) }

// StackEnv returns the paper's evaluation environment on the named
// storage stack: "nova" or "nvstream".
func StackEnv(name string) (core.Env, error) {
	env := core.DefaultEnv()
	switch name {
	case "nova":
		env.NewStack = func() stack.Instance { return nova.Default() }
	case "nvstream":
		env.NewStack = func() stack.Instance { return nvstream.Default() }
	default:
		return env, fmt.Errorf("unknown stack %q (want nova or nvstream)", name)
	}
	return env, nil
}

// Env is the environment stamp every BENCH document carries: numbers
// measured on different machines or toolchains are not comparable.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// Stamp describes the running process: toolchain and scheduler width
// from the runtime, the CPU model from /proc/cpuinfo and the commit
// from the binary's build info, each "unknown" when unavailable.
func Stamp() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the vcs.revision the go command stamped into the
// binary (go build stamps it by default, go run only with
// -buildvcs=true), marked "-dirty" when the tree had local changes.
func commit() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
