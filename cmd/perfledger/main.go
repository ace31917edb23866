// Command perfledger turns `go test -bench -benchmem` output on stdin
// into the per-layer benchmark ledger, BENCH_layers.json, and gates a
// fresh run against a committed ledger:
//
//	go test -run '^$' -bench '<rows>' -benchtime 200x -benchmem -count 3 <pkgs> \
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
// "BenchmarkName[-GOMAXPROCS] N v ns/op v B/op v allocs/op"; the rest
// of the stamp describes this process, which runs beside go test.
func parse(r io.Reader) (ledger, error) {
	led := ledger{Schema: schema, Env: cli.Stamp()}
	led.Env.GOMAXPROCS = 1 // go test omits the -N suffix at GOMAXPROCS=1
	var pkg string
	var names []string
	pkgs, cols := map[string]string{}, map[string]*[3][]float64{} // per row: ns/op, B/op, allocs/op
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
		if len(f) < 8 || f[3] != "ns/op" || f[5] != "B/op" || f[7] != "allocs/op" {
			return led, fmt.Errorf("%q: want ns/op, B/op and allocs/op (go test -benchmem)", line)
		}
		name := f[0][len("Benchmark"):]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name, led.Env.GOMAXPROCS = name[:i], procs
			}
		}
		if cols[name] == nil {
			names, pkgs[name], cols[name] = append(names, name), pkg, new([3][]float64)
		}
		for i, c := range cols[name] {
			v, err := strconv.ParseFloat(f[2+2*i], 64)
			if err != nil {
				return led, fmt.Errorf("%q: %w", line, err)
			}
			cols[name][i] = append(c, v)
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
		c := cols[name]
		led.Rows = append(led.Rows, row{Name: name, Pkg: pkgs[name], Runs: len(c[0]),
			NsPerOp: median(c[0]), BytesPerOp: median(c[1]), AllocsPerOp: median(c[2])})
	}
	return led, sc.Err()
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
