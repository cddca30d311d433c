package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"syscall"
	"time"
)

// proc is one finished webmm process.
type proc struct {
	wall   time.Duration // exec to exit
	stdout []byte
	rssMiB float64 // peak resident set size
}

// webmmCmd prepares a webmm process that is killed when the run's context
// ends and, through the parent-death signal, when the harness itself dies.
func (b *bench) webmmCmd(args ...string) *exec.Cmd {
	cmd := exec.CommandContext(b.ctx, b.opt.bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runWebmm runs the webmm binary to completion under the run's deadline.
func (b *bench) runWebmm(args ...string) (proc, error) {
	cmd := b.webmmCmd(args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(start), stdout: stdout.Bytes(), rssMiB: peakRSS(cmd)}
	if err != nil {
		return p, fmt.Errorf("webmm %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return p, nil
}

// peakRSS reads a finished process's peak resident set size in MiB.
func peakRSS(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goldenCheck regenerates Figure 1 and Table 3 at the golden configuration
// with the default seed and compares them byte for byte with the committed
// golden file.
func goldenCheck(b *bench, golden []byte) error {
	var out []byte
	for _, exp := range []string{"fig1", "table3"} {
		p, err := b.runWebmm("-exp", exp, "-scale", "256", "-warmup", "1", "-measure", "1")
		if err != nil {
			return err
		}
		out = append(out, p.stdout...)
	}
	if !bytes.Equal(out, golden) {
		return fmt.Errorf("output differs from %s", goldenPath)
	}
	return nil
}

// cliStartup is one CLI start-up: a no-simulation webmm -exp table2.
func cliStartup(b *bench) (time.Duration, error) {
	p, err := b.runWebmm("-exp", "table2")
	if err == nil {
		b.output("table2", p.stdout)
	}
	return p.wall, err
}

// simSeed derives the simulator seed passed to webmm from the workload
// seed. It is never 0.
func simSeed(seed uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x%(1<<40) + 1
}

// dramAllocs are dram-serial's cells: the Figure 1 cell's three allocators
// over the banked DRAM model with FR-FCFS scheduling.
var dramAllocs = []string{"default", "region", "ddmalloc"}

func dramArgs(alloc string, seed uint64) []string {
	return []string{"-exp", "cell", "-platform", "xeon", "-alloc", alloc,
		"-workload", "MediaWiki(rw)", "-cores", "8", "-memsched", "frfcfs",
		"-scale", "64", "-warmup", "1", "-measure", "2", "-seed", fmt.Sprint(simSeed(seed))}
}

// dramSerial runs the three DRAM cells one process at a time, round after
// round, until the run's seconds are spent. wall_s is a round taken as the
// sum of each cell's median time, so one slow moment of the host spoils one
// cell's sample rather than a whole round's; req_per_s is the round's three
// cells over it, and sim_p50_ms the median cell process.
func dramSerial(b *bench) error {
	var cellWalls, units, rss []float64
	perAlloc := map[string][]float64{}
	for start := time.Now(); b.more(start, units, 2); {
		var round float64
		for _, a := range dramAllocs {
			p, err := b.runWebmm(dramArgs(a, b.opt.seed)...)
			if err == nil && !bytes.Contains(p.stdout, []byte("DRAM row hits")) {
				err = errors.New("cell output lacks the DRAM statistics")
			}
			b.op("dram-serial cell "+a, err)
			round += p.wall.Seconds()
			if err != nil {
				continue
			}
			rss = append(rss, p.rssMiB)
			b.output("dram-serial "+a, p.stdout)
			cellWalls = append(cellWalls, p.wall.Seconds())
			perAlloc[a] = append(perAlloc[a], p.wall.Seconds())
		}
		units = append(units, round)
	}
	var roundWall float64
	for _, a := range dramAllocs {
		xs := perAlloc[a]
		if len(xs) == 0 {
			return errNoSamples
		}
		roundWall += median(xs)
		b.note("dram-serial %-8s cell p50 %.1f ms (n=%d)", a, 1000*median(xs), len(xs))
	}
	b.add("wall_s", "s", roundWall, len(cellWalls))
	b.add("req_per_s", "1/s", float64(len(dramAllocs))/roundWall, len(cellWalls))
	b.add("sim_p50_ms", "ms", 1000*median(cellWalls), len(cellWalls))
	b.add("peak_rss_mib", "MiB", median(rss), len(rss))
	if p, ok := percentile(cellWalls, 0.9); ok {
		b.note("dram-serial cell p90 %.1f ms (n=%d)", 1000*p, len(cellWalls))
	}
	return nil
}
