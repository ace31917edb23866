// Command wfrun executes one suite workflow under one (or every)
// scheduling configuration and prints the measured runtime with the
// split writer/reader breakdown the paper plots.
//
// Usage:
//
//	wfrun -workflow gtc+readonly -ranks 16                 # all configs
//	wfrun -workflow micro-2k -ranks 24 -config S-LocR      # one config
//	wfrun -list                                            # list workflows
package main

import (
	"flag"
	"fmt"
	"os"

	"pmemsched"
	"pmemsched/internal/units"
	"pmemsched/internal/workloads"
)

func main() {
	name := flag.String("workflow", "", "workflow name (see -list)")
	specPath := flag.String("spec", "", "JSON workflow spec file (alternative to -workflow)")
	ranks := flag.Int("ranks", 16, "ranks per component (8, 16 or 24 in the paper)")
	config := flag.String("config", "", "configuration label (default: all four)")
	list := flag.Bool("list", false, "list workflow names and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-viewer timeline of the (single-config) run to this file")
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return
	}
	var wf pmemsched.Workflow
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfrun:", err)
			os.Exit(2)
		}
		wf, err = pmemsched.ReadWorkflow(f)
		//pmemlint:ignore errflow read-only file; decode errors are checked, a close error cannot lose data
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfrun:", err)
			os.Exit(2)
		}
	} else {
		var ok bool
		wf, ok = workloads.ByName(*name, *ranks)
		if !ok {
			fmt.Fprintf(os.Stderr, "wfrun: unknown workflow %q (use -list or -spec)\n", *name)
			os.Exit(2)
		}
	}
	env := pmemsched.DefaultEnv()

	var configs []pmemsched.Config
	if *config == "" {
		configs = pmemsched.Configs
	} else {
		c, err := pmemsched.ParseConfig(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfrun:", err)
			os.Exit(2)
		}
		configs = []pmemsched.Config{c}
	}

	if *tracePath != "" && len(configs) != 1 {
		fmt.Fprintln(os.Stderr, "wfrun: -trace requires a single -config")
		os.Exit(2)
	}
	fmt.Printf("workflow %s (%s total through PMEM)\n", wf, units.FormatBytes(wf.TotalBytes()))
	var results []pmemsched.Result
	for _, cfg := range configs {
		res, tracer, err := pmemsched.RunWithTrace(wf, cfg, env, *tracePath != "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfrun:", err)
			os.Exit(1)
		}
		if tracer != nil {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wfrun:", err)
				os.Exit(1)
			}
			if err := tracer.WriteChromeTrace(f); err != nil {
				fmt.Fprintln(os.Stderr, "wfrun:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "wfrun:", err)
				os.Exit(1)
			}
			fmt.Printf("timeline written to %s (%d events)\n", *tracePath, len(tracer.Events))
		}
		results = append(results, res)
		if cfg.Mode == pmemsched.Serial {
			fmt.Printf("  %-7s total %9s  (writer %s + reader %s)\n",
				cfg.Label(), units.FormatSeconds(res.TotalSeconds),
				units.FormatSeconds(res.WriterSplit), units.FormatSeconds(res.ReaderSplit))
		} else {
			fmt.Printf("  %-7s total %9s  (writers end %s)\n",
				cfg.Label(), units.FormatSeconds(res.TotalSeconds),
				units.FormatSeconds(res.WriterEnd))
		}
		fmt.Printf("          writer: compute %s, software %s, device %s\n",
			units.FormatSeconds(res.Writer.Compute), units.FormatSeconds(res.Writer.SW),
			units.FormatSeconds(res.Writer.IO))
		fmt.Printf("          reader: compute %s, software %s, device %s, waiting %s\n",
			units.FormatSeconds(res.Reader.Compute), units.FormatSeconds(res.Reader.SW),
			units.FormatSeconds(res.Reader.IO), units.FormatSeconds(res.Reader.Wait+res.Reader.Gate))
	}
	if len(results) > 1 {
		best := pmemsched.Best(results)
		fmt.Printf("best: %s (%s)\n", best.Config.Label(), units.FormatSeconds(best.TotalSeconds))
	}
}
