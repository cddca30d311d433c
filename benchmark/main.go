// Command webmm-bench is webmm's benchmark: it drives a prebuilt webmm
// binary the way users do, times it, checks every output, and prints each
// metric by name with its unit and sample count. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
//
// Usage (normally through benchmark/run.sh, which builds both binaries):
//
//	webmm-bench -root . -workload dram-serial|serve-mix -seed N -seconds S -trace 0|1
//	webmm-bench spread FILE...
//
// With -trace 0 the run measures the named workload end to end. With
// -trace 1 it runs the layer suite instead (trace.go): traced cells rebuilt
// from the simulator's layers, the paper-cold manifest, and serve-mix event
// times. README.md in this directory describes the workloads, the metrics
// and the measured spreads. The spread subcommand reads saved result lines
// and prints each metric's interquartile spread.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// runLimit bounds one run, build excluded; every child process is started
// under it, so a hung child fails the run instead of outliving it.
const runLimit = 170 * time.Second

// goldenPath is the committed Figure 1 + Table 3 golden output, relative to
// the repository root.
const goldenPath = "internal/experiments/testdata/golden_fig1_table3.txt"

type options struct {
	root     string
	bin      string
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// bench accumulates one run's metrics, operations and check outcomes.
type bench struct {
	opt     options
	ctx     context.Context
	tmp     string
	metrics []metric
	// attempted counts operations (processes, requests, traced cells) and
	// output checks; failed counts those that failed.
	attempted, failed int
	problems          []string
	digests           digestSet
	notes             []string
	setups            []float64 // start-up samples, seconds
}

// op counts one operation or check; a non-nil err counts as a failure.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// add records a metric.
func (b *bench) add(name, unit string, v float64, n int) {
	b.metrics = append(b.metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

// more reports whether a workload that started measuring at start should
// run another unit of work, given the durations of the units so far: it
// runs at least least units, and another one only while the median unit
// still fits in the run's seconds. Runs thus measure for about -seconds
// whatever the host's speed, and every metric is a median over units.
func (b *bench) more(start time.Time, units []float64, least int) bool {
	if len(units) < least {
		return true
	}
	return time.Since(start).Seconds()+median(units) <= float64(b.opt.seconds)
}

// note adds a line to the human-readable report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// output records an output digest under name, failing the check when an
// earlier repetition of the same output in this run differed.
func (b *bench) output(name string, out []byte) {
	b.op("output "+name+" identical across repetitions", b.digests.check(name, digest(out)))
}

// benchWorkload is one end-to-end workload: its unit of set-up (one start-up,
// returning its duration) and its measured run.
type benchWorkload struct {
	startup func(*bench) (time.Duration, error)
	run     func(*bench) error
}

var workloads = map[string]benchWorkload{
	"dram-serial": {cliStartup, dramSerial},
	"serve-mix":   {serveStartup, serveMix},
}

// setupReps is how many start-ups setup_s takes the median of, half before
// the workload and half after it: one start-up lasts a few milliseconds,
// too short to time once, and sampling both ends of the run keeps one slow
// moment of the host from setting the figure.
const setupReps = 16

// setup times half of the run's start-ups.
func (b *bench) setup(w benchWorkload) {
	for i := 0; i < setupReps/2; i++ {
		d, err := w.startup(b)
		b.op("start-up", err)
		if err == nil {
			b.setups = append(b.setups, d.Seconds())
		}
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(spreadCmd(os.Args[2:]))
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "webmm-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.root, "root", ".", "repository root holding the sources and .bench_build/")
	flag.StringVar(&opt.workload, "workload", "", "dram-serial or serve-mix")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&opt.seconds, "seconds", 55, "how long the run measures; sets the amount of work")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the per-layer suite instead of the end-to-end workload")
	flag.Parse()
	work, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want dram-serial or serve-mix)", opt.workload)
	}
	if opt.seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", opt.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace %d must be 0 or 1", traceFlag)
	}
	opt.trace = traceFlag == 1
	opt.bin = filepath.Join(opt.root, ".bench_build", "webmm")
	if _, err := os.Stat(opt.bin); err != nil {
		return fmt.Errorf("webmm binary: %w", err)
	}
	golden, err := os.ReadFile(filepath.Join(opt.root, goldenPath))
	if err != nil {
		return fmt.Errorf("golden output: %w", err)
	}
	buildDir := filepath.Join(opt.root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// SIGINT or SIGTERM cancels the run: every webmm process is killed and
	// waited for, and the run exits nonzero.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, runLimit)
	defer cancel()
	b := &bench{opt: opt, ctx: ctx, tmp: tmp, digests: digestSet{}}

	calibStart := calibrate()
	b.op("golden fig1+table3", goldenCheck(b, golden))
	if opt.trace {
		err = traceSuite(b)
	} else {
		b.setup(work)
		err = work.run(b)
		b.setup(work)
		if len(b.setups) == 0 {
			return errors.New("no start-up succeeded")
		}
		b.add("setup_s", "s", median(b.setups), len(b.setups))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	calibEnd := calibrate()
	b.note("host.calib_ms: start %.3f, end %.3f (frozen kernel, median of %d; diagnostic only)",
		calibStart, calibEnd, calibReps)
	if opt.trace {
		b.add("host.calib_ms", "ms", median([]float64{calibStart, calibEnd}), 2*calibReps)
	}
	b.crossRunDigests(buildDir)
	return b.print(os.Stdout)
}

// crossRunDigests compares this run's output digests with those of earlier
// runs of the same workload, mode and seed in this checkout, then stores
// the union, so every run of a set must produce the same simulated outputs.
func (b *bench) crossRunDigests(buildDir string) {
	dir := filepath.Join(buildDir, "digests")
	mode := "e2e"
	if b.opt.trace {
		mode = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", b.opt.workload, mode, b.opt.seed))
	stored, err := loadDigests(path)
	if err == nil {
		for _, e := range stored.merge(b.digests) {
			b.op("output identical across runs", e)
		}
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = stored.save(path)
		}
	}
	b.op("digest store", err)
}

// result is the JSON line that ends a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report followed by the JSON result line.
func (b *bench) print(w io.Writer) error {
	mode := "end to end, tracing off"
	if b.opt.trace {
		mode = "per layer (traced suite)"
	}
	fmt.Fprintf(w, "webmm benchmark: workload %s, seed %d, %d s, %s\n\n",
		b.opt.workload, b.opt.seed, b.opt.seconds, mode)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]resultValue{}}
	for _, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", m.Name, m.Value, m.Unit, m.N)
		res.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	failRatio := float64(b.failed) / float64(b.attempted)
	fmt.Fprintf(w, "\nfail_ratio %.4g (%d of %d operations and checks failed)\n", failRatio, b.failed, b.attempted)
	for _, n := range b.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range b.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	res.Correct = b.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// spreadCmd reads files whose last line is a result and prints, per
// metric, the median and the interquartile range as a share of it — the
// statistic a set of runs is judged by.
func spreadCmd(files []string) int {
	if len(files) < 2 {
		fmt.Fprintln(os.Stderr, "usage: webmm-bench spread FILE FILE...")
		return 2
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webmm-bench:", err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(os.Stderr, "webmm-bench: %s: %v\n", f, err)
			return 1
		}
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "webmm-bench: %s: run not correct (%d of %d failed)\n", f, r.Failed, r.Attempted)
		}
		for name, v := range r.Metrics {
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmedian\tunit\tspread\truns")
	for _, name := range names {
		xs := values[name]
		s, err := spread(xs)
		sp := fmt.Sprintf("%.2f%%", 100*s)
		if err != nil {
			sp = err.Error()
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\n", name, median(xs), units[name], sp, len(xs))
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "webmm-bench:", err)
		return 1
	}
	return 0
}

// errNoSamples ends a run whose operations all failed: it has no metric to
// report.
var errNoSamples = errors.New("no successful samples")
