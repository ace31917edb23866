// Command perfledger turns `go test -bench -benchmem` output on stdin
// into the per-layer benchmark ledger, BENCH_layers.json, and gates a
// fresh run against a committed ledger:
//
//	go test -p 1 -run '^$' -bench '<rows>' -benchtime 200x -benchmem -count 3 <pkgs> \
//	  | go run -buildvcs=true ./cmd/perfledger -baseline BENCH_layers.json -out fresh.json
//
// Each row is the median of its -count repeats. With -baseline the
// command exits 1 when a baseline row is missing from the run, when
// allocs/op rises on a gated row, or when ns/op on an ns-gated row
// exceeds nsTolerance times the baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pmemsched/internal/cli"
)

const schema = "pmemsched/bench-layers/v1"

// nsTolerance bounds the ns/op growth of the ns-gated rows; 2x absorbs
// the spread between CI runners and the machine that wrote the ledger.
const nsTolerance = 2.0

// gated reports which checks a row carries. Every row that runs without
// the HTTP stack gates allocs/op, which repeats exactly for one Go
// version on any machine.
// Only the two cluster rows gate ns/op: they carry the engine's
// per-event cost, and the benchmark workloads time the rest end to end.
func gated(name string) (allocs, ns bool) {
	switch name {
	case "PolicyPass", "Reflow":
		return true, true
	case "DeviceEvaluate", "RateRound", "Compile", "RunnerHit":
		return true, false
	}
	return false, false
}

type ledger struct {
	Schema string  `json:"schema"`
	Env    cli.Env `json:"env"`
	Rows   []row   `json:"rows"`
}

type row struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds the medians of the metrics a benchmark reports beside
	// the standard three (b.ReportMetric), keyed by unit. It is recorded,
	// never gated.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "committed ledger to gate the run against")
	out := fs.String("out", "", "write the ledger to this path (default: stdout)")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		cli.Sayln(stderr, "usage: perfledger [-baseline ledger.json] [-out ledger.json] < bench.txt")
		return 2
	}
	led, err := parse(stdin)
	if err == nil {
		err = write(led, *out, stdout)
	}
	if err == nil && *baseline != "" {
		var base ledger
		if base, err = read(*baseline); err == nil && gate(base.Rows, led.Rows, stderr) > 0 {
			return 1
		}
	}
	if err != nil {
		cli.Sayln(stderr, "perfledger:", err)
		return 1
	}
	return 0
}

// parse reads the pkg and cpu headers and the result lines,
// "BenchmarkName[-GOMAXPROCS] N v ns/op [v unit]... v B/op v allocs/op",
// where the optional pairs are a benchmark's own metrics; the rest of
// the stamp describes this process, which runs beside go test.
func parse(r io.Reader) (ledger, error) {
	led := ledger{Schema: schema, Env: cli.Stamp()}
	led.Env.GOMAXPROCS = 1 // go test omits the -N suffix at GOMAXPROCS=1
	var pkg string
	var names []string
	pkgs, rows := map[string]string{}, map[string]*repeats{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = v
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			led.Env.CPUModel = v
		}
		f := strings.Fields(line)
		if !strings.HasPrefix(line, "Benchmark") || len(f) < 3 {
			continue // a header, a log line, or a benchmark name printed before its logs
		}
		if len(f)%2 != 0 || !slices.Contains(f, "ns/op") || !slices.Contains(f, "B/op") || !slices.Contains(f, "allocs/op") {
			return led, fmt.Errorf("%q: want ns/op, B/op and allocs/op (go test -benchmem)", line)
		}
		name := f[0][len("Benchmark"):]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name, led.Env.GOMAXPROCS = name[:i], procs
			}
		}
		rep := rows[name]
		if rep == nil {
			rep = &repeats{vals: map[string][]float64{}}
			names, pkgs[name], rows[name] = append(names, name), pkg, rep
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return led, fmt.Errorf("%q: %w", line, err)
			}
			unit := f[i+1]
			if rep.vals[unit] == nil {
				rep.units = append(rep.units, unit)
			}
			rep.vals[unit] = append(rep.vals[unit], v)
		}
	}
	if len(names) == 0 && sc.Err() == nil {
		return led, fmt.Errorf("no benchmark results on stdin")
	}
	median := func(v []float64) float64 {
		sort.Float64s(v)
		return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
	}
	sort.Strings(names)
	for _, name := range names {
		rep := rows[name]
		r := row{Name: name, Pkg: pkgs[name], Runs: len(rep.vals["ns/op"]),
			NsPerOp: median(rep.vals["ns/op"]), BytesPerOp: median(rep.vals["B/op"]), AllocsPerOp: median(rep.vals["allocs/op"])}
		for _, unit := range rep.units {
			if unit == "ns/op" || unit == "B/op" || unit == "allocs/op" {
				continue
			}
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = median(rep.vals[unit])
		}
		led.Rows = append(led.Rows, r)
	}
	return led, sc.Err()
}

// repeats collects one row's result lines: every unit it reports, in
// first-seen order, with one value per repeat.
type repeats struct {
	units []string
	vals  map[string][]float64
}

func write(led ledger, path string, stdout io.Writer) error {
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func read(path string) (ledger, error) {
	var led ledger
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &led)
	}
	if err == nil && led.Schema != schema {
		err = fmt.Errorf("schema %q, want %q", led.Schema, schema)
	}
	if err != nil {
		return led, fmt.Errorf("baseline %s: %w", path, err)
	}
	return led, nil
}

// gate reports every check of fresh that fails against base and returns
// how many failed. Rows the baseline lacks pass: they are new.
func gate(base, fresh []row, stderr io.Writer) int {
	byName := map[string]row{}
	for _, r := range fresh {
		byName[r.Name] = r
	}
	fails := 0
	for _, b := range base {
		r, ok := byName[b.Name]
		allocs, ns := gated(b.Name)
		var msg string
		switch {
		case !ok:
			msg = "in the baseline but not in this run"
		case allocs && r.AllocsPerOp > b.AllocsPerOp:
			msg = fmt.Sprintf("%g allocs/op, baseline %g", r.AllocsPerOp, b.AllocsPerOp)
		case ns && r.NsPerOp > nsTolerance*b.NsPerOp:
			msg = fmt.Sprintf("%.0f ns/op, over %gx the baseline %.0f", r.NsPerOp, nsTolerance, b.NsPerOp)
		default:
			continue
		}
		cli.Sayf(stderr, "perfledger: FAIL %s: %s\n", b.Name, msg)
		fails++
	}
	return fails
}
