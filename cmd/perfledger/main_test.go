package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchRow is one result line of a synthetic go test -bench run.
type benchRow struct {
	pkg, name     string
	ns            float64
	bytes, allocs int
}

// ledgerRows carries the committed ledger's row names.
func ledgerRows() []benchRow {
	return []benchRow{
		{"pmemsched/internal/pmem", "DeviceEvaluate", 550, 0, 0},
		{"pmemsched/internal/sim", "RateRound", 95000, 0, 0},
		{"pmemsched/internal/workflow", "Compile", 45000, 33408, 312},
		{"pmemsched/internal/core", "RunnerHit", 6500, 168, 13},
		{"pmemsched/internal/cluster", "PolicyPass", 100000, 3760, 3},
		{"pmemsched/internal/cluster", "Reflow", 30000, 0, 0},
		{"pmemsched/internal/schedd", "Recommend/cold", 5e6, 115000, 1533},
		{"pmemsched/internal/schedd", "Recommend/warm", 3.8e6, 16460, 232},
	}
}

// benchText renders rows as go test prints them, one package block per
// package, with the -2 GOMAXPROCS suffix.
func benchText(rows []benchRow) string {
	var b strings.Builder
	pkg := ""
	for _, r := range rows {
		if r.pkg != pkg {
			if pkg != "" {
				fmt.Fprintf(&b, "PASS\nok  \t%s\t0.100s\n", pkg)
			}
			pkg = r.pkg
			fmt.Fprintf(&b, "goos: linux\ngoarch: amd64\npkg: %s\ncpu: Test CPU @ 2.00GHz\n", pkg)
		}
		fmt.Fprintf(&b, "Benchmark%s-2   \t     200\t  %10.1f ns/op\t  %6d B/op\t  %4d allocs/op\n", r.name, r.ns, r.bytes, r.allocs)
	}
	fmt.Fprintf(&b, "PASS\nok  \t%s\t0.100s\n", pkg)
	return b.String()
}

func TestParse(t *testing.T) {
	text := "goos: linux\ngoarch: amd64\npkg: pmemsched/internal/schedd\ncpu: Test CPU @ 2.00GHz\n" +
		"BenchmarkRecommend/warm-4   \t 200\t 300 ns/op\t 10 B/op\t 2 allocs/op\n" +
		"BenchmarkRecommend/warm-4   \t 200\t 100 ns/op\t 30 B/op\t 1 allocs/op\n" +
		"BenchmarkRecommend/warm-4   \t 200\t 200 ns/op\t 20 B/op\t 3 allocs/op\n" +
		"BenchmarkRecommend/cold\n" + // printed ahead of a benchmark's log lines
		"    server_test.go:1: a log line\n" +
		"BenchmarkRecommend/cold-4   \t 200\t 5000 ns/op\t 90 B/op\t 9 allocs/op\n" +
		"PASS\nok  \tpmemsched/internal/schedd\t1.0s\n"
	led, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if led.Schema != schema || led.Env.CPUModel != "Test CPU @ 2.00GHz" || led.Env.GOMAXPROCS != 4 || led.Env.GoVersion == "" {
		t.Errorf("stamp %+v (schema %q)", led.Env, led.Schema)
	}
	want := []row{
		{Name: "Recommend/cold", Pkg: "pmemsched/internal/schedd", Runs: 1, NsPerOp: 5000, BytesPerOp: 90, AllocsPerOp: 9},
		{Name: "Recommend/warm", Pkg: "pmemsched/internal/schedd", Runs: 3, NsPerOp: 200, BytesPerOp: 20, AllocsPerOp: 2},
	}
	if fmt.Sprint(led.Rows) != fmt.Sprint(want) {
		t.Errorf("rows\n%+v\nwant (sorted, medians of the repeats)\n%+v", led.Rows, want)
	}

	// Without a -N suffix the run was at GOMAXPROCS=1; an even repeat
	// count takes the mean of the middle two.
	led, err = parse(strings.NewReader("BenchmarkReflow \t 1\t 10 ns/op\t 0 B/op\t 0 allocs/op\n" +
		"BenchmarkReflow \t 1\t 20 ns/op\t 0 B/op\t 0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if led.Env.GOMAXPROCS != 1 || len(led.Rows) != 1 || led.Rows[0].Name != "Reflow" || led.Rows[0].NsPerOp != 15 {
		t.Errorf("GOMAXPROCS %d, rows %+v", led.Env.GOMAXPROCS, led.Rows)
	}

	for _, bad := range []string{"", "PASS\n", "BenchmarkReflow-2 \t 200\t 10 ns/op\n"} {
		if _, err := parse(strings.NewReader(bad)); err == nil {
			t.Errorf("parse(%q) accepted input without -benchmem results", bad)
		}
	}
}

// TestParseExtraMetrics: a benchmark's own metrics (b.ReportMetric),
// which go test prints between ns/op and the -benchmem columns, are
// kept as medians under their units beside the three standard columns.
func TestParseExtraMetrics(t *testing.T) {
	text := "pkg: pmemsched/internal/cluster\n" +
		"BenchmarkFleetPass-2 \t 200\t 3000 ns/op\t 1500 ns/event\t 900 B/op\t 40 allocs/op\n" +
		"BenchmarkFleetPass-2 \t 200\t 1000 ns/op\t 500 ns/event\t 900 B/op\t 40 allocs/op\n" +
		"BenchmarkFleetPass-2 \t 200\t 2000 ns/op\t 1000 ns/event\t 900 B/op\t 40 allocs/op\n"
	led, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []row{{Name: "FleetPass", Pkg: "pmemsched/internal/cluster", Runs: 3, NsPerOp: 2000, BytesPerOp: 900, AllocsPerOp: 40,
		Extra: map[string]float64{"ns/event": 1000}}}
	if fmt.Sprint(led.Rows) != fmt.Sprint(want) {
		t.Errorf("rows\n%+v\nwant\n%+v", led.Rows, want)
	}
	for _, bad := range []string{
		"BenchmarkFleetPass-2 \t 200\t 3000 ns/op\t 1500 ns/event\t 900 B/op\n",
		"BenchmarkFleetPass-2 \t 200\t 3000 ns/op\t 1500\t 900 B/op\t 40 allocs/op\n",
		"BenchmarkFleetPass-2 \t 200\t 3000 ns/op\t x ns/event\t 900 B/op\t 40 allocs/op\n",
	} {
		if _, err := parse(strings.NewReader(bad)); err == nil {
			t.Errorf("parse(%q) accepted a malformed result line", bad)
		}
	}
}

// TestGate is the gate's canary: each planted regression must exit 1,
// and each change the gate deliberately allows must exit 0.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_layers.json")
	var stderr bytes.Buffer
	if code := run([]string{"-out", baseline}, strings.NewReader(benchText(ledgerRows())), new(bytes.Buffer), &stderr); code != 0 {
		t.Fatalf("writing the baseline: exit %d: %s", code, stderr.String())
	}
	edit := func(name string, f func(*benchRow)) []benchRow {
		rows := ledgerRows()
		for i := range rows {
			if rows[i].name == name {
				f(&rows[i])
			}
		}
		return rows
	}
	type tc struct {
		name string
		rows []benchRow
		want int
	}
	cases := []tc{
		{"unchanged", ledgerRows(), 0},
		{"PolicyPass 2.01x ns/op", edit("PolicyPass", func(r *benchRow) { r.ns *= 2.01 }), 1},
		{"Reflow 2.01x ns/op", edit("Reflow", func(r *benchRow) { r.ns *= 2.01 }), 1},
		{"Reflow 1.99x ns/op", edit("Reflow", func(r *benchRow) { r.ns *= 1.99 }), 0},
		{"Compile 10x ns/op (allocs-gated only)", edit("Compile", func(r *benchRow) { r.ns *= 10 }), 0},
		{"Recommend/warm +1 allocs/op (not gated)", edit("Recommend/warm", func(r *benchRow) { r.allocs++ }), 0},
		{"RunnerHit -1 allocs/op", edit("RunnerHit", func(r *benchRow) { r.allocs-- }), 0},
		{"Recommend/cold missing", ledgerRows()[:7], 1},
		{"new row", append(ledgerRows(), benchRow{"pmemsched/internal/sim", "Kernel", 1, 0, 5}), 0},
	}
	for _, name := range []string{"DeviceEvaluate", "RateRound", "Compile", "RunnerHit", "PolicyPass", "Reflow"} {
		cases = append(cases, tc{name + " +1 allocs/op", edit(name, func(r *benchRow) { r.allocs++ }), 1})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-baseline", baseline}, strings.NewReader(benchText(c.rows)), &stdout, &stderr)
			if code != c.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.want, stderr.String())
			}
			if c.want == 1 && !strings.Contains(stderr.String(), "FAIL") {
				t.Errorf("stderr %q does not name the failed check", stderr.String())
			}
			if !strings.Contains(stdout.String(), `"schema": "`+schema+`"`) {
				t.Error("the fresh ledger was not written before gating")
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	text := benchText(ledgerRows())
	bogus := filepath.Join(t.TempDir(), "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"schema": "other/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-tolerance", "3"}, 2},
		{[]string{"extra"}, 2},
		{[]string{"-baseline", filepath.Join(t.TempDir(), "missing.json")}, 1},
		{[]string{"-baseline", bogus}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, strings.NewReader(text), &stdout, &stderr); code != c.want {
			t.Errorf("run %v: exit %d, want %d (stderr %q)", c.args, code, c.want, stderr.String())
		}
	}
}

// TestCommittedLedger checks the committed ledger parses and carries
// the environment stamp and every layer row.
func TestCommittedLedger(t *testing.T) {
	led, err := read(filepath.Join("..", "..", "BENCH_layers.json"))
	if err != nil {
		t.Fatal(err)
	}
	if e := led.Env; e.GoVersion == "" || e.GOOS == "" || e.GOARCH == "" || e.GOMAXPROCS < 1 || e.CPUModel == "" || e.Commit == "" {
		t.Errorf("incomplete stamp %+v", e)
	}
	have := map[string]bool{}
	for _, r := range led.Rows {
		have[r.Name] = r.NsPerOp > 0 && r.Runs > 0
	}
	for _, r := range ledgerRows() {
		if !have[r.name] {
			t.Errorf("row %s missing or unmeasured", r.name)
		}
	}
}
