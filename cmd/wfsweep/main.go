// Command wfsweep runs parameter sweeps over the workflow space and
// prints the oracle-best configuration per cell — the crossover-map
// generator behind the "sweep" experiment, with the grid configurable
// from the command line.
//
// Usage:
//
//	wfsweep                                      # default grid
//	wfsweep -sizes 2048,65536,4194304 -ranks 4,8,16,24
//	wfsweep -compute 0,0.5,1,2 -size 67108864 -ranksfix 16
//	wfsweep -format csv
//	wfsweep -parallel 8   # size of the run engine's worker pool
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pmemsched"
	"pmemsched/internal/core"
	"pmemsched/internal/trace"
	"pmemsched/internal/units"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

func main() {
	sizesArg := flag.String("sizes", "2048,16384,262144,4194304,67108864", "object sizes in bytes (must divide 1 GiB)")
	ranksArg := flag.String("ranks", "4,8,12,16,20,24", "rank counts for the size sweep")
	computeArg := flag.String("compute", "", "compute-per-iteration values (seconds) for a compute sweep instead")
	sizeFix := flag.Int64("size", 64<<20, "object size for the compute sweep")
	ranksFix := flag.Int("ranksfix", 16, "rank count for the compute sweep")
	format := flag.String("format", "text", "output format: text or csv")
	parallel := flag.Int("parallel", 0, "run-engine worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	rt := pmemsched.NewRunner(pmemsched.DefaultEnv(), *parallel)

	var t *trace.Table
	var err error
	if *computeArg != "" {
		t, err = computeSweep(rt, parseList(*computeArg, "float", func(p string) (float64, error) { return strconv.ParseFloat(p, 64) }), *sizeFix, *ranksFix)
	} else {
		t, err = sizeSweep(rt, parseList(*sizesArg, "size", func(p string) (int64, error) { return strconv.ParseInt(p, 10, 64) }),
			parseList(*ranksArg, "integer", strconv.Atoi))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfsweep:", err)
		os.Exit(1)
	}
	switch *format {
	case "text":
		err = t.WriteText(os.Stdout)
	case "csv":
		err = t.WriteCSV(os.Stdout)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfsweep:", err)
		os.Exit(1)
	}
}

func sizeSweep(rt *core.Runner, sizes []int64, ranks []int) (*trace.Table, error) {
	cols := []string{"object size"}
	for _, r := range ranks {
		cols = append(cols, fmt.Sprintf("%dr", r))
	}
	t := &trace.Table{Title: "oracle-best configuration", Columns: cols}
	for _, size := range sizes {
		row := []any{units.FormatBytes(size)}
		for _, r := range ranks {
			dec, err := rt.Oracle(workloads.MicroWorkflow(size, r))
			if err != nil {
				return nil, err
			}
			row = append(row, dec.Best.Config.Label())
		}
		t.AddRow(row...)
	}
	return t, nil
}

func computeSweep(rt *core.Runner, computes []float64, size int64, ranks int) (*trace.Table, error) {
	t := &trace.Table{
		Title:   fmt.Sprintf("oracle-best vs simulation compute (%s objects, %d ranks)", units.FormatBytes(size), ranks),
		Columns: []string{"compute/iter", "sim I/O index", "best", "S-LocW", "S-LocR", "P-LocW", "P-LocR"},
	}
	for _, c := range computes {
		sim := workloads.Micro(size)
		sim.ComputePerIteration = c
		wf := workflow.Couple(fmt.Sprintf("sweep-c%g", c), sim, workloads.ReadOnly(), ranks, workloads.Iterations)
		dec, err := rt.Oracle(wf)
		if err != nil {
			return nil, err
		}
		f, err := rt.Classify(wf)
		if err != nil {
			return nil, err
		}
		row := []any{fmt.Sprintf("%gs", c), fmt.Sprintf("%.2f", f.SimProfile.IOIndex), dec.Best.Config.Label()}
		for _, r := range dec.Results {
			row = append(row, fmt.Sprintf("%.2fs", r.TotalSeconds))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// parseList parses a comma-separated flag value, exiting with a usage
// error that names the bad element.
func parseList[T any](s, what string, parse func(string) (T, error)) []T {
	var out []T
	for _, p := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfsweep: bad %s %q\n", what, p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
