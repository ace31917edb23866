package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value with its unit, the shape of every entry
// under "metrics" in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile reads the q-quantile of xs by nearest rank, sorting a copy;
// it returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set size in MiB. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tally counts the operations a run attempted and the output checks
// that failed. Every failed check is one failed operation.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// maxReported bounds the failure messages printed to stderr, so a
// systematically broken output does not flood the log.
const maxReported = 10

// op records one attempted operation and whether its output checked.
func (t *tally) op(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		if t.failed.Add(1) <= maxReported {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return ok
}

// span is one timed call into a layer, recorded by a traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Req    string `json:"req"` // the run or request the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; they are written out
// once the run ends. A nil *tracer records nothing, which is how the
// untraced runs pass through the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (tr *tracer) begin(name string, parent int, req string) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	return id
}

// end closes the span opened by begin.
func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// add records a span whose interval the caller already measured.
func (tr *tracer) add(name string, parent int, req string, start time.Time, d time.Duration) {
	if tr == nil {
		return
	}
	s := start.Sub(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Name: name, Req: req, Start: s, End: s + d.Nanoseconds()})
	tr.mu.Unlock()
}

// dur returns a closed span's duration.
func (tr *tracer) dur(id int) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return time.Duration(tr.spans[id].End - tr.spans[id].Start)
}

// childTime sums the durations of the spans named name whose parent is
// the given span.
func (tr *tracer) childTime(parent int, name string) (time.Duration, int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var total int64
	n := 0
	for _, s := range tr.spans[parent+1:] {
		if s.Parent == parent && s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	return time.Duration(total), n
}

// durations returns the durations in milliseconds of every span with
// the given name.
func (tr *tracer) durations(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as gzip-compressed JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := gzip.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
