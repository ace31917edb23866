// Command wfschedd serves the paper's scheduling decisions over
// HTTP/JSON: Table II configuration recommendations backed by the
// shared memoized run engine, and stateful cluster placement driven by
// the internal/cluster policies. See DESIGN.md "Scheduler as a
// service" for the API.
//
// Usage:
//
//	wfschedd                          # listen on 127.0.0.1:8080
//	wfschedd -addr :9000 -nodes 4     # custom port, 4 nodes pre-registered
//	wfschedd -policy easy -config S-LocW
//	wfschedd -stack nvstream -workers 8
//	wfschedd -max-inflight 64 -batch-window 5ms -deadline 10s
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight requests
// finish (bounded by -drain), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmemsched/internal/cli"
	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/schedd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "run-engine worker pool size (0 = GOMAXPROCS)")
	stackName := fs.String("stack", "nova", "storage stack: nova or nvstream")
	policyName := fs.String("policy", "pmem-aware", "placement policy: fcfs, easy, pmem-aware, easy-i or pmem-aware-i")
	configName := fs.String("config", "S-LocW", "fixed site-wide configuration for fcfs/easy (S-LocW, S-LocR, P-LocW, P-LocR)")
	cores := fs.Int("cores", 0, "cores per socket per node (0 = the testbed's)")
	nodes := fs.Int("nodes", 0, "pre-register this many nodes at startup")
	maxInflight := fs.Int("max-inflight", 0, "admission limit on concurrent decision requests (0 = 8x workers)")
	batchWindow := fs.Duration("batch-window", 0, "recommend micro-batch collection window (0 = 2ms)")
	batchMax := fs.Int("batch-max", 0, "max recommend requests per micro-batch (0 = 64)")
	batchers := fs.Int("batchers", 0, "concurrent batch collectors (0 = min(4, GOMAXPROCS))")
	deadline := fs.Duration("deadline", 0, "per-request decision deadline (0 = 30s)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	quiet := fs.Bool("quiet", false, "suppress per-request logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		cli.Sayf(stderr, "wfschedd: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	env, err := cli.StackEnv(*stackName)
	if err != nil {
		cli.Sayln(stderr, "wfschedd:", err)
		return 2
	}
	fixed, err := core.ParseConfig(*configName)
	if err != nil {
		cli.Sayln(stderr, "wfschedd:", err)
		return 2
	}
	policy, err := cluster.ParsePolicy(*policyName, fixed)
	if err != nil {
		cli.Sayln(stderr, "wfschedd:", err)
		return 2
	}
	if *nodes < 0 {
		cli.Sayf(stderr, "wfschedd: -nodes must be non-negative, got %d\n", *nodes)
		return 2
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	}
	srv, err := schedd.New(schedd.Config{
		Runner:         core.NewRunner(env, *workers),
		Policy:         policy,
		CoresPerSocket: *cores,
		MaxInflight:    *maxInflight,
		BatchWindow:    *batchWindow,
		MaxBatch:       *batchMax,
		Batchers:       *batchers,
		RequestTimeout: *deadline,
		Logger:         logger,
	})
	if err != nil {
		cli.Sayln(stderr, "wfschedd:", err)
		return 2
	}
	if *nodes > 0 {
		srv.AddNodes(*nodes)
	}

	// Catch signals before announcing the address: a SIGTERM sent the
	// moment "listening on" appears must drain, not kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Sayln(stderr, "wfschedd:", err)
		return 1
	}
	cli.Sayf(stdout, "wfschedd: listening on http://%s (policy %s, stack %s)\n",
		ln.Addr(), *policyName, *stackName)

	httpSrv := srv.HTTPServer()
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of draining
		cli.Sayln(stdout, "wfschedd: draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := httpSrv.Shutdown(shutdownCtx)
		srv.Close() // after Shutdown: no handler is enqueuing anymore
		if err != nil {
			cli.Sayln(stderr, "wfschedd: drain incomplete:", err)
			return 1
		}
		cli.Sayln(stdout, "wfschedd: bye")
		return 0
	case err := <-served:
		srv.Close()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Sayln(stderr, "wfschedd:", err)
			return 1
		}
		return 0
	}
}
