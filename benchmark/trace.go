package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"webmm/internal/apprt"
	"webmm/internal/experiments"
	"webmm/internal/heap"
	"webmm/internal/machine"
	"webmm/internal/mem"
	"webmm/internal/memsys"
	"webmm/internal/sim"
	"webmm/internal/workload"
)

// sumTolerance is how far the sum of a traced cell's layer self times may
// sit from its traced wall time, as a share of that wall time. The layers
// partition the cell, so the gap is only the timer calls between them.
const sumTolerance = 0.01

// tracedCell is one cell of the layer suite with the configuration of the
// workload it comes from.
type tracedCell struct {
	cell experiments.Cell
	cfg  experiments.Config
}

// traceSeed is the simulator seed of the traced cells: fixed, so every
// count the suite reports repeats exactly from run to run.
const traceSeed = 20090615

// tracedCells are dram-serial's three cells, the same cells on the bus, and
// a Niagara 8-core cell and a 1-core cell from paper-cold.
func tracedCells() []tracedCell {
	dram := experiments.Config{Scale: 64, Warmup: 1, Measure: 2, Seed: traceSeed}
	cold := paperColdCfg(traceSeed)
	var out []tracedCell
	for _, sched := range []string{"frfcfs", ""} {
		for _, a := range dramAllocs {
			out = append(out, tracedCell{experiments.Cell{Platform: "xeon", Alloc: a,
				Workload: "MediaWiki(rw)", Cores: 8, MemSched: sched}, dram})
		}
	}
	return append(out,
		tracedCell{experiments.Cell{Platform: "niagara", Alloc: "default", Workload: "MediaWiki(rw)", Cores: 8}, cold},
		tracedCell{experiments.Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "MediaWiki(ro)", Cores: 1}, cold})
}

func (t tracedCell) name() string {
	model := "bus"
	if t.cell.MemSched != "" {
		model = t.cell.MemSched
	}
	return fmt.Sprintf("%s/%s/%s/%d/%s@%d", t.cell.Platform, t.cell.Alloc, t.cell.Workload, t.cell.Cores, model, t.cfg.Scale)
}

// layers is where one traced cell's host time went. The self times
// partition the traced wall time: construct, then generation (slice time
// minus the allocator calls inside it), the allocator, pricing (the
// machine's run time minus generation, allocator and memory-system
// recording), recording, and solve.
type layers struct {
	wall, construct, step, alloc, run, record, solve time.Duration
	slices, events, allocCalls, records              uint64
	replay                                           time.Duration // DRAM cells only
	res                                              machine.Result
}

func (l *layers) gen() time.Duration   { return l.step - l.alloc }
func (l *layers) price() time.Duration { return l.run - l.step - l.record }

// sum adds up the self times.
func (l *layers) sum() time.Duration {
	return l.construct + l.gen() + l.alloc + l.price() + l.record + l.solve
}

// timedDriver times each StepTransaction (one generated slice) and counts
// the events it left for the machine to price.
type timedDriver struct {
	d   machine.Driver
	env *sim.Env
	l   *layers
}

func (t *timedDriver) StepTransaction() bool {
	start := time.Now()
	done := t.d.StepTransaction()
	t.l.step += time.Since(start)
	t.l.slices++
	t.l.events += uint64(t.env.Buf().Len())
	return done
}

// timedAlloc times the generator's calls into the allocator.
type timedAlloc struct {
	heap.Allocator
	l *layers
}

func (a timedAlloc) Malloc(size uint64) heap.Ptr {
	start := time.Now()
	p := a.Allocator.Malloc(size)
	a.l.alloc += time.Since(start)
	a.l.allocCalls++
	return p
}

func (a timedAlloc) Free(p heap.Ptr) {
	start := time.Now()
	a.Allocator.Free(p)
	a.l.alloc += time.Since(start)
	a.l.allocCalls++
}

func (a timedAlloc) Realloc(p heap.Ptr, oldSize, newSize uint64) heap.Ptr {
	start := time.Now()
	np := a.Allocator.Realloc(p, oldSize, newSize)
	a.l.alloc += time.Since(start)
	a.l.allocCalls++
	return np
}

// missRecord is one captured memory-system transaction.
type missRecord struct {
	line uint64
	core int
	kind memsys.Kind
}

// captureChunk is the length of one chunk of a captured miss stream. The
// stream grows chunk by chunk, never copied, so capture adds little to the
// pricing it interrupts.
const captureChunk = 1 << 16

// tracedDRAM is the DRAM model with a recorder that times each Record call
// and captures the miss stream for replay.
type tracedDRAM struct {
	*memsys.DRAM
	l      *layers
	stream [][]missRecord
}

func (t *tracedDRAM) Recorder() memsys.Recorder { return t }

func (t *tracedDRAM) Record(line uint64, core int, kind memsys.Kind) {
	start := time.Now()
	t.DRAM.Record(line, core, kind)
	t.l.record += time.Since(start)
	t.l.records++
	if n := len(t.stream); n == 0 || len(t.stream[n-1]) == captureChunk {
		t.stream = append(t.stream, make([]missRecord, 0, captureChunk))
	}
	last := &t.stream[len(t.stream)-1]
	*last = append(*last, missRecord{line, core, kind})
}

// scalePlatform shrinks L2 capacity and TLB reach with the workload scale,
// as the experiment runner does; the DeepEqual check against Runner.Run
// catches any drift from it.
func scalePlatform(p machine.Platform, scale int) machine.Platform {
	if scale == 1 {
		return p
	}
	sets := max(p.L2.Sets()/scale, 64)
	p.L2.Size = uint64(sets) * uint64(p.L2.Ways) * mem.LineSize
	p.TLBEntries = max(p.TLBEntries/scale, 32)
	return p
}

// appCode is the interpreter and script code footprint the runner gives
// every PHP cell.
const appCode = 192 * mem.KiB

// traceCell rebuilds one PHP cell from the layers' public constructors,
// runs it with every layer boundary timed, and replays a DRAM cell's
// captured miss stream into a fresh model.
func traceCell(t tracedCell) (*layers, error) {
	l := &layers{}
	c, cfg := t.cell, t.cfg
	start := time.Now()
	plat, err := machine.PlatformByName(c.Platform)
	if err != nil {
		return nil, err
	}
	plat = scalePlatform(plat, cfg.Scale)
	var dram *tracedDRAM
	if c.MemSched != "" {
		d, err := memsys.NewDRAM(memsys.DRAMConfig{Policy: memsys.PolicyName(c.MemSched)}, plat.Mem.Link(), c.Cores)
		if err != nil {
			return nil, err
		}
		dram = &tracedDRAM{DRAM: d, l: l}
		plat.Mem = dram
	}
	prof, err := workload.ByName(c.Workload)
	if err != nil {
		return nil, err
	}
	allocCode, err := apprt.AllocCodeSize(c.Alloc)
	if err != nil {
		return nil, err
	}
	m := machine.New(plat, c.Cores, allocCode, appCode, cfg.Seed)
	drivers := make([]machine.Driver, m.NumStreams())
	for i, s := range m.Streams() {
		opts := apprt.AllocOptions{PID: i, LargePages: plat.Name == "niagara"}
		rt, err := apprt.NewPHP(s.Env, c.Alloc, prof, cfg.Scale, opts)
		if err != nil {
			return nil, err
		}
		rt.Generator().SetAllocator(timedAlloc{Allocator: rt.Allocator(), l: l})
		drivers[i] = &timedDriver{d: rt, env: s.Env, l: l}
		l.events += uint64(s.Env.Buf().Len()) // construction events, priced by PriceSetup
	}
	l.construct = time.Since(start)

	runStart := time.Now()
	m.PriceSetup()
	ctx := context.Background()
	if err := m.RunContext(ctx, drivers, cfg.Warmup, 0); err != nil {
		return nil, err
	}
	if err := m.RunContext(ctx, drivers, 0, cfg.Measure); err != nil {
		return nil, err
	}
	l.run = time.Since(runStart)

	solveStart := time.Now()
	l.res = m.Solve()
	l.solve = time.Since(solveStart)
	l.wall = time.Since(start)

	if dram != nil {
		if err := replay(dram, plat, c.Cores, l); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// replay feeds the captured miss stream into a fresh DRAM model through
// Record and LatencyMultiplier, times it, and requires the fresh model's
// statistics to equal the live one's.
func replay(live *tracedDRAM, plat machine.Platform, cores int, l *layers) error {
	d, err := memsys.NewDRAM(memsys.DRAMConfig{Policy: memsys.PolicyName(live.Stats().Policy)}, plat.Mem.Link(), cores)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, chunk := range live.stream {
		for _, r := range chunk {
			d.Record(r.line, r.core, r.kind)
		}
	}
	d.LatencyMultiplier(l.res.BusUtil)
	l.replay = time.Since(start)
	if !reflect.DeepEqual(d.Stats(), live.Stats()) {
		return errors.New("replayed DRAM statistics differ from the live model's")
	}
	return nil
}

// untraced runs the cell through experiments.Runner, the program's own
// path, and returns its result and wall time.
func untraced(t tracedCell) (experiments.CellResult, time.Duration) {
	start := time.Now()
	cr := experiments.NewRunner(t.cfg).Run(t.cell)
	return cr, time.Since(start)
}

// traceSuite is the -trace 1 run: paper-cold's manifest for the runner
// layer, a short serve-mix session for the server layer, then the traced
// cells for the rest of the run's seconds.
func traceSuite(b *bench) error {
	start := time.Now()
	if err := runnerLayer(b); err != nil {
		return err
	}
	if err := serverLayer(b); err != nil {
		return err
	}
	return traceCells(b, start)
}

// traceCells traces the cell set repeatedly (at least once, more while the
// run's seconds last since start), checks every traced cell against
// Runner.Run and the layer-sum tolerance, and reports per-layer sums over
// the set of each cell's median repetition.
func traceCells(b *bench, start time.Time) error {
	cells := tracedCells()
	runs := make([][]*layers, len(cells))
	plain := make([][]float64, len(cells))
	var worstSum float64
	var reps []float64
	for b.more(start, reps, 1) {
		repStart := time.Now()
		for i, t := range cells {
			l, err := traceCell(t)
			b.op("traced cell "+t.name(), err)
			if err != nil {
				continue
			}
			cr, wall := untraced(t)
			var cerr error
			if cr.Failed || !reflect.DeepEqual(cr.Res, l.res) {
				cerr = errors.New("traced result differs from Runner.Run's")
			}
			b.op("traced cell equals Runner.Run "+t.name(), cerr)
			w, s := l.wall.Seconds(), l.sum().Seconds()
			gap := math.Abs(w-s) / w
			worstSum = max(worstSum, gap)
			var serr error
			if gap > sumTolerance || l.gen() < 0 || l.price() < 0 {
				serr = fmt.Errorf("layers sum to %.4f s of a %.4f s cell", s, w)
			}
			b.op("layer sum "+t.name(), serr)
			b.output("traced "+t.name(), mustJSON(l.res))
			runs[i] = append(runs[i], l)
			plain[i] = append(plain[i], wall.Seconds())
		}
		reps = append(reps, time.Since(repStart).Seconds())
	}

	var sum struct {
		construct, gen, alloc, price, record, solve, replay, wall, plain float64
		slices, events, allocCalls, records                              uint64
		instr, l1i, l1d, tlb, l2, bus, rowHits, rowReqs                  uint64
	}
	samples, dramSamples := 0, 0
	for i, t := range cells {
		rs := runs[i]
		if len(rs) == 0 {
			return errNoSamples
		}
		samples += len(rs)
		med := func(f func(*layers) time.Duration) float64 {
			xs := make([]float64, len(rs))
			for j, l := range rs {
				xs[j] = f(l).Seconds()
			}
			return median(xs)
		}
		cons, gen := med(func(l *layers) time.Duration { return l.construct }), med((*layers).gen)
		alloc, price := med(func(l *layers) time.Duration { return l.alloc }), med((*layers).price)
		rec, solve := med(func(l *layers) time.Duration { return l.record }), med(func(l *layers) time.Duration { return l.solve })
		wall, untracedWall := med(func(l *layers) time.Duration { return l.wall }), median(plain[i])
		sum.construct += cons
		sum.gen += gen
		sum.alloc += alloc
		sum.price += price
		sum.record += rec
		sum.solve += solve
		sum.wall += wall
		sum.plain += untracedWall
		// Counts are the same in every repetition: the cell is deterministic.
		l := rs[0]
		sum.slices += l.slices
		sum.events += l.events
		sum.allocCalls += l.allocCalls
		sum.records += l.records
		tot := l.res.Totals
		sum.instr += tot.Instr
		sum.l1i += tot.L1IMiss
		sum.l1d += tot.L1DMiss
		sum.tlb += tot.TLBMiss
		sum.l2 += tot.L2Miss()
		sum.bus += tot.BusTxns()
		replay := ""
		if ms := l.res.Mem; ms != nil {
			sum.rowHits += ms.RowHits
			sum.rowReqs += ms.Total()
			r := med(func(l *layers) time.Duration { return l.replay })
			sum.replay += r
			dramSamples += len(rs)
			replay = fmt.Sprintf(" replay %.1f;", 1000*r)
		}
		b.note("traced %-40s %6.1f ms = construct %.2f + gen %.1f + alloc %.1f + price %.1f + record %.1f + solve %.3f;%s untraced %.1f ms (n=%d)",
			t.name(), 1000*wall, 1000*cons, 1000*gen, 1000*alloc, 1000*price, 1000*rec, 1000*solve, replay, 1000*untracedWall, len(rs))
	}
	n := len(cells)
	b.add("construct.s", "s", sum.construct, samples)
	b.add("workload.gen_s", "s", sum.gen, samples)
	b.add("workload.slices", "count", float64(sum.slices), n)
	b.add("sim.events", "count", float64(sum.events), n)
	b.add("alloc.s", "s", sum.alloc, samples)
	b.add("alloc.calls", "count", float64(sum.allocCalls), n)
	b.add("machine.price_s", "s", sum.price, samples)
	b.add("machine.ns_per_event", "ns", 1e9*sum.price/float64(sum.events), samples)
	b.add("machine.solve_s", "s", sum.solve, samples)
	b.add("memsys.records", "count", float64(sum.records), n)
	b.add("memsys.record_s", "s", sum.record, samples)
	b.add("memsys.replay_s", "s", sum.replay, dramSamples)
	b.add("trace.overhead", "ratio", sum.wall/sum.plain, samples)
	b.add("trace.sum_gap", "ratio", worstSum, samples)
	b.add("sim.minstr", "Minstr", float64(sum.instr)/1e6, n)
	b.add("l1i.misses", "count", float64(sum.l1i), n)
	b.add("l1d.misses", "count", float64(sum.l1d), n)
	b.add("tlb.misses", "count", float64(sum.tlb), n)
	b.add("l2.misses", "count", float64(sum.l2), n)
	b.add("bus.txns", "count", float64(sum.bus), n)
	b.add("dram.row_hit_ratio", "ratio", float64(sum.rowHits)/float64(sum.rowReqs), dramSamples)
	b.note("layer sums: worst gap %.3f%% of a traced cell (tolerance %.1f%%); traced cells take %.3fx the time of Runner.Run",
		100*worstSum, 100*sumTolerance, sum.wall/sum.plain)
	return nil
}

// mustJSON encodes a simulation result for its digest.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // machine.Result holds only numbers, strings and slices
	}
	return b
}

// paperColdJobs is paper-cold's worker count: one per core of the host.
const paperColdJobs = 2

// paperColdCfg is paper-cold's simulation configuration under a simulator
// seed.
func paperColdCfg(seed uint64) experiments.Config {
	return experiments.Config{Scale: 128, Warmup: 1, Measure: 1, Seed: seed}
}

// paperColdArgs is the run a user of the study makes: every table and
// figure of the paper, cold (no cell cache), both cores busy, here with
// -manifest so the runner's accounting can be read.
func paperColdArgs(seed uint64, manifest string) []string {
	cfg := paperColdCfg(simSeed(seed))
	return []string{"-exp", "all", "-scale", fmt.Sprint(cfg.Scale), "-warmup", fmt.Sprint(cfg.Warmup),
		"-measure", fmt.Sprint(cfg.Measure), "-jobs", fmt.Sprint(paperColdJobs),
		"-seed", fmt.Sprint(cfg.Seed), "-manifest", manifest}
}

// distinctCells counts the distinct cells paper-cold's plan simulates.
func distinctCells(seed uint64) int {
	seen := map[experiments.Cell]bool{}
	for _, c := range experiments.NewRunner(paperColdCfg(simSeed(seed))).CellsFor("all") {
		seen[c] = true
	}
	return len(seen)
}

// manifest is the part of webmm's -manifest output the runner layer reads.
type manifest struct {
	WallSeconds float64 `json:"wall_seconds"`
	MemoHits    uint64  `json:"memo_hits"`
	Cells       []struct {
		WallMS float64 `json:"wall_ms"`
		Failed bool    `json:"failed"`
	} `json:"cells"`
	Failures []any `json:"failures"`
}

// runnerLayer runs paper-cold — `webmm -exp all` at scale 128 with two
// jobs and no cell cache — once with -manifest and reports the runner's
// cells, memo hits and pool utilization (Σ cell wall / (jobs × wall)).
func runnerLayer(b *bench) error {
	path := filepath.Join(b.tmp, "paper-cold-manifest.json")
	p, err := b.runWebmm(paperColdArgs(b.opt.seed, path)...)
	b.op("paper-cold with manifest", err)
	if err != nil {
		return err
	}
	b.output("paper-cold stdout", p.stdout)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	var busy float64
	for _, c := range m.Cells {
		busy += c.WallMS / 1000
	}
	var merr error
	if want := distinctCells(b.opt.seed); len(m.Failures) > 0 || len(m.Cells) != want {
		merr = fmt.Errorf("manifest: %d cells (want %d), %d failures", len(m.Cells), want, len(m.Failures))
	}
	b.op("paper-cold manifest holds every distinct cell", merr)
	b.add("runner.cells", "count", float64(len(m.Cells)), 1)
	b.add("runner.memo_hits", "count", float64(m.MemoHits), 1)
	b.add("runner.pool_util", "ratio", busy/(paperColdJobs*m.WallSeconds), len(m.Cells))
	return nil
}

// serverBlocks is the length of the trace suite's serve session.
const serverBlocks = 3

// serverLayer runs a short serve-mix session and splits each request's
// client-side event times into admission, queueing and execution.
func serverLayer(b *bench) error {
	run := &serveRun{}
	err := run.session(b, newMix(b.opt.seed), serverBlocks)
	b.op("serve session", err)
	if err != nil {
		return err
	}
	var admit, queue, exec, hits []float64
	rejected := 0
	for _, d := range run.done {
		if d.rejected {
			rejected++
		}
		if d.err != nil {
			continue
		}
		admit = append(admit, ms(d.admit))
		queue = append(queue, ms(d.queue))
		if d.hit {
			exec = append(exec, ms(d.exec))
			hits = append(hits, ms(d.latency))
		}
	}
	if len(admit) == 0 || len(hits) == 0 {
		return errNoSamples
	}
	b.add("server.admit_ms", "ms", median(admit), len(admit))
	b.add("server.queue_ms", "ms", median(queue), len(queue))
	b.add("server.exec_ms", "ms", median(exec), len(exec))
	b.add("server.hit_p50_ms", "ms", median(hits), len(hits))
	b.add("server.rejected", "count", float64(rejected), len(run.done))
	return nil
}
