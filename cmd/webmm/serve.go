package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webmm/internal/budget"
	"webmm/internal/experiments"
	"webmm/internal/server"
)

// serveCmd implements `webmm serve`: the long-running experiment service.
// It serves until SIGINT/SIGTERM, then drains in-flight cells and exits 0.
func serveCmd(args []string) int {
	fs := flag.NewFlagSet("webmm serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port)")
		jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker goroutines executing requests")
		queue    = fs.Int("queue", 0, "admission queue depth beyond the workers (0 = 2×jobs); overflow returns 429")
		scale    = fs.Int("scale", 32, "default workload scale divisor (power of two; requests may override)")
		warmup   = fs.Int("warmup", 2, "default warmup transactions per stream")
		measure  = fs.Int("measure", 3, "default measured transactions per stream")
		seed     = fs.Uint64("seed", 20090615, "default random seed")
		fidelity = fs.String("fidelity", "full", "default measurement fidelity: full or sampled")
		cellDir  = fs.String("cellcache", "", "on-disk cell cache shared by all requests (empty = disabled)")
		timeout  = fs.Duration("timeout", 0, "per-cell wall-clock budget (0 = unlimited); requests may tighten it")
		drain    = fs.Duration("drain-timeout", 60*time.Second, "graceful-shutdown budget before in-flight cells are cancelled")
		gbudget  = fs.String("global-budget", "", "global memory budget shared by all running cells, e.g. 2GiB (empty = unlimited); a controller apportions it by allocation rate and admission degrades under pressure")
		pressure = fs.String("pressure", "", "pressure-ladder thresholds DEGRADE,QUEUE,SHED as utilization fractions (default 0.70,0.85,0.95); needs -global-budget")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"webmm serve runs the experiment runner as an HTTP service.\n\nUsage: webmm serve [flags]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), `
Endpoints:
  POST /run      a cell ({"platform","alloc","workload","cores","ruby",
                 "restart_every","budget","memsched"}) or an experiment
                 ({"experiment":"fig1"}), plus optional config overrides
                 ("scale","warmup","measure","seed","fidelity","faults",
                 "timeout_ms"); streams NDJSON progress. A bad config or
                 cell is a 400 before any simulation.
  GET  /metrics  live Prometheus metrics of the shared telemetry registry
  GET  /healthz  queue, worker, and memory-pressure status

With -global-budget, a MemBalancer-style controller splits the budget
across running cells by allocation rate, and admission walks a pressure
ladder instead of failing: new work degrades to sampled fidelity, then is
turned away with a computed Retry-After, then shed with 429. /healthz stays
green throughout.

SIGTERM drains in-flight cells (bounded by -drain-timeout) and exits 0.
`)
	}
	_ = fs.Parse(args)

	var globalBudget uint64
	if *gbudget != "" {
		n, err := experiments.ParseSize(*gbudget)
		if err != nil || n == 0 {
			fmt.Fprintf(os.Stderr, "webmm serve: bad -global-budget %q\n", *gbudget)
			return 2
		}
		globalBudget = n
	}
	policy, err := parsePressure(*pressure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webmm serve:", err)
		return 2
	}
	if *pressure != "" && globalBudget == 0 {
		fmt.Fprintln(os.Stderr, "webmm serve: -pressure needs -global-budget")
		return 2
	}

	srv, err := server.New(server.Config{
		Addr:       *addr,
		Jobs:       *jobs,
		QueueDepth: *queue,
		Sim: experiments.Config{
			Scale: *scale, Warmup: *warmup, Measure: *measure, Seed: *seed,
			Fidelity: *fidelity,
		},
		CacheDir:     *cellDir,
		CellTimeout:  *timeout,
		DrainTimeout: *drain,
		GlobalBudget: globalBudget,
		Pressure:     policy,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "webmm serve:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	qd := *queue
	if qd <= 0 {
		qd = 2 * *jobs
	}
	go func() {
		fmt.Fprintf(os.Stderr, "webmm serve: listening on http://%s (%d workers, queue %d)\n",
			srv.Addr(), *jobs, qd)
	}()
	if err := srv.ListenAndServe(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "webmm serve:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "webmm serve: drained, shutting down cleanly")
	return 0
}

// parsePressure parses the -pressure flag: three comma-separated ascending
// utilization fractions in (0,1], e.g. "0.70,0.85,0.95". Empty means the
// defaults.
func parsePressure(s string) (budget.Policy, error) {
	var p budget.Policy
	if s == "" {
		return p, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return p, fmt.Errorf("bad -pressure %q (want DEGRADE,QUEUE,SHED, e.g. 0.70,0.85,0.95)", s)
	}
	vals := make([]float64, 3)
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 || v > 1 {
			return p, fmt.Errorf("bad -pressure threshold %q (want a fraction in (0,1])", part)
		}
		vals[i] = v
	}
	if !(vals[0] < vals[1] && vals[1] < vals[2]) {
		return p, fmt.Errorf("bad -pressure %q (thresholds must ascend)", s)
	}
	p.DegradeAt, p.QueueAt, p.ShedAt = vals[0], vals[1], vals[2]
	return p, nil
}
