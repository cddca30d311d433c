package memsys

import (
	"fmt"
	"math/bits"

	"webmm/internal/bus"
	"webmm/internal/mem"
)

// DRAMConfig sizes a DRAM memory system. The zero value of any field means
// "use the default" (see defaultDRAMConfig), so callers normally set only
// Policy.
type DRAMConfig struct {
	// Geometry: Channels × RanksPerChannel × BanksPerRank independent
	// banks, each with one row buffer of RowBytes. All four must be powers
	// of two, so the address map is shifts and masks.
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowBytes        uint64

	// Window is the per-bank queue depth at which pending requests are
	// scheduled and replayed. Larger windows give the policy more
	// reordering freedom; 1 degenerates to FCFS regardless of policy.
	// At most maxWindow.
	Window int

	// Policy names the scheduling policy (DefaultPolicy when empty).
	Policy PolicyName

	// Service-time factors relative to the platform's unloaded memory
	// latency: an open-row hit skips the activate, a closed bank pays it
	// (1.0 ≡ the bus model's flat latency), a conflict pays a precharge
	// on top.
	HitFactor      float64
	ClosedFactor   float64
	ConflictFactor float64
}

// defaultDRAMConfig is a modest DDR2-era part matching the paper's machines:
// 2 channels × 2 ranks × 8 banks (32 banks), 8 KiB rows, and the canonical
// ~0.55 / 1.0 / 1.4 hit/closed/conflict timing ratio (tCL vs tRCD+tCL vs
// tRP+tRCD+tCL).
var defaultDRAMConfig = DRAMConfig{
	Channels:        2,
	RanksPerChannel: 2,
	BanksPerRank:    8,
	RowBytes:        8 << 10,
	Window:          32,
	Policy:          DefaultPolicy,
	HitFactor:       0.55,
	ClosedFactor:    1.0,
	ConflictFactor:  1.4,
}

// rowClosed marks a precharged bank (no open row).
const rowClosed int64 = -1

// maxWindow bounds the scheduling window, since every bank preallocates
// its queue to the window: 4096 requests is two orders of magnitude past
// a real controller's queue and costs 3 MiB over the default 32 banks.
const maxWindow = 4096

// bank is one DRAM bank: its open row and its pending request queue
// (arrival-ordered when a window starts; preallocated to the window, and
// emptied by every service, so appends never grow it).
type bank struct {
	openRow int64
	pending []request
}

// DRAM models a multi-bank memory behind the platform's transfer link. It
// records the measured miss stream into per-bank queues, replays each queue
// window under the configured scheduling policy to classify row-buffer
// outcomes and per-core queueing, and folds the result into the solver's
// latency multiplier:
//
//	multiplier(core) = RowFactor × 1/(1-u) × CoreFactor(core)
//
// where RowFactor is the request-weighted mean service factor (1.0 when
// every access pays the closed-row timing — the bus model's assumption) and
// CoreFactor redistributes latency between cores with request-weighted mean
// 1.0, so the aggregate bandwidth story stays the paper's queueing model.
type DRAM struct {
	cfg    DRAMConfig
	link   bus.Model
	nCores int
	sched  scheduler

	banks []bank
	seq   uint64

	// Address map (see locate): line = row | bank-in-channel | row offset |
	// channel, low bits last.
	chanMask  uint64
	lineShift uint // log2(Channels × lines per row)
	bankShift uint // log2(banks per channel)
	bankMask  uint64

	// Accumulated over all serviced requests.
	reads, writebacks, prefetches uint64
	hits, closed, conflicts       uint64
	queueSum, queueSamples        uint64
	maxQueue                      int
	coreScore                     []float64
	coreReqs                      []uint64

	// Lazily finalized on the first solver query: partial windows flush
	// and the derived factors freeze.
	finalized   bool
	rowFactor   float64
	coreFactors []float64
	stats       *Stats
}

// NewDRAM builds a DRAM memory system behind the given link for nCores
// cores. Zero-valued cfg fields take defaults; the policy name is validated
// here so every entry point gets the registry's helpful error.
func NewDRAM(cfg DRAMConfig, link bus.Model, nCores int) (*DRAM, error) {
	def := defaultDRAMConfig
	if cfg.Channels == 0 {
		cfg.Channels = def.Channels
	}
	if cfg.RanksPerChannel == 0 {
		cfg.RanksPerChannel = def.RanksPerChannel
	}
	if cfg.BanksPerRank == 0 {
		cfg.BanksPerRank = def.BanksPerRank
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = def.RowBytes
	}
	if cfg.Window == 0 {
		cfg.Window = def.Window
	}
	if cfg.Policy == "" {
		cfg.Policy = def.Policy
	}
	if cfg.HitFactor == 0 {
		cfg.HitFactor = def.HitFactor
	}
	if cfg.ClosedFactor == 0 {
		cfg.ClosedFactor = def.ClosedFactor
	}
	if cfg.ConflictFactor == 0 {
		cfg.ConflictFactor = def.ConflictFactor
	}
	if _, err := PolicyByName(cfg.Policy); err != nil {
		return nil, err
	}
	if !pow2(cfg.Channels) || !pow2(cfg.RanksPerChannel) || !pow2(cfg.BanksPerRank) {
		return nil, fmt.Errorf("memsys: %d channels × %d ranks × %d banks: every count must be a power of two",
			cfg.Channels, cfg.RanksPerChannel, cfg.BanksPerRank)
	}
	if cfg.RowBytes < mem.LineSize || !pow2(cfg.RowBytes) {
		return nil, fmt.Errorf("memsys: row size %d is not a power of two of at least the %d-byte line", cfg.RowBytes, mem.LineSize)
	}
	if cfg.Window < 1 || cfg.Window > maxWindow {
		return nil, fmt.Errorf("memsys: window %d out of range [1, %d]", cfg.Window, maxWindow)
	}
	if nCores < 1 {
		return nil, fmt.Errorf("memsys: nCores %d out of range", nCores)
	}
	banksPerChannel := cfg.RanksPerChannel * cfg.BanksPerRank
	nBanks := cfg.Channels * banksPerChannel
	d := &DRAM{
		cfg:       cfg,
		link:      link,
		nCores:    nCores,
		sched:     newScheduler(cfg.Policy, nCores),
		banks:     make([]bank, nBanks),
		chanMask:  uint64(cfg.Channels - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.Channels)) + bits.TrailingZeros64(cfg.RowBytes/mem.LineSize)),
		bankShift: uint(bits.TrailingZeros(uint(banksPerChannel))),
		bankMask:  uint64(banksPerChannel - 1),
		coreScore: make([]float64, nCores),
		coreReqs:  make([]uint64, nCores),
	}
	queues := make([]request, nBanks*cfg.Window)
	for i := range d.banks {
		d.banks[i].openRow = rowClosed
		d.banks[i].pending = queues[i*cfg.Window : i*cfg.Window : (i+1)*cfg.Window]
	}
	return d, nil
}

func pow2[T int | uint64](n T) bool { return n > 0 && n&(n-1) == 0 }

func (d *DRAM) Name() string       { return "dram/" + string(d.cfg.Policy) }
func (d *DRAM) Recorder() Recorder { return d }
func (d *DRAM) Link() bus.Model    { return d.link }

// Record maps one bus transaction to its bank and row and enqueues it;
// when the bank's queue reaches the scheduling window it is serviced. The
// address map stripes lines across channels and consecutive rows across a
// channel's banks, so sequential sweeps enjoy row locality while
// independent heaps land on independent banks.
func (d *DRAM) Record(line uint64, core int, kind Kind) {
	if d.finalized {
		// Recording after the solver started reading would silently skew
		// the frozen factors; the machine never does this.
		panic("memsys: Record after finalize")
	}
	bankID, row := d.locate(line)
	b := &d.banks[bankID]
	b.pending = append(b.pending, request{row: row, seq: d.seq, core: int32(core), kind: kind})
	d.seq++
	switch kind {
	case Read:
		d.reads++
	case Writeback:
		d.writebacks++
	default:
		d.prefetches++
	}
	depth := len(b.pending)
	d.queueSum += uint64(depth)
	d.queueSamples++
	if depth > d.maxQueue {
		d.maxQueue = depth
	}
	if depth >= d.cfg.Window {
		d.sched.serveWindow(d, b)
	}
}

// locate maps a line to its bank and row: channel = line mod Channels,
// then rowGlobal = line / Channels / linesPerRow, bank-in-channel =
// rowGlobal mod banksPerChannel and row = rowGlobal / banksPerChannel,
// each a shift or mask because NewDRAM admits only powers of two.
func (d *DRAM) locate(line uint64) (bankID int, row int64) {
	rowGlobal := line >> d.lineShift
	return int((line&d.chanMask)<<d.bankShift | rowGlobal&d.bankMask), int64(rowGlobal >> d.bankShift)
}

// service serves one request from bank b: classify it against the open
// row, charge its core the service factor plus the time already elapsed
// in the window (bank-level queueing), and open its row. It returns the
// service factor, by which the caller advances elapsed. Every policy's
// serveWindow drains a window through it.
func (d *DRAM) service(b *bank, r request, elapsed float64) float64 {
	var units float64
	switch {
	case r.row == b.openRow:
		units = d.cfg.HitFactor
		d.hits++
	case b.openRow == rowClosed:
		units = d.cfg.ClosedFactor
		d.closed++
	default:
		units = d.cfg.ConflictFactor
		d.conflicts++
	}
	b.openRow = r.row
	d.coreScore[r.core] += elapsed + units
	d.coreReqs[r.core]++
	return units
}

// finalize flushes partial windows and freezes the derived factors. Called
// lazily by the first solver query; recording is over by then (the machine
// prices before it solves).
func (d *DRAM) finalize() {
	if d.finalized {
		return
	}
	d.finalized = true
	for i := range d.banks {
		if len(d.banks[i].pending) > 0 {
			d.sched.serveWindow(d, &d.banks[i])
		}
	}

	total := d.hits + d.closed + d.conflicts
	if total == 0 {
		d.rowFactor = 1
	} else {
		weighted := float64(d.hits)*d.cfg.HitFactor +
			float64(d.closed)*d.cfg.ClosedFactor +
			float64(d.conflicts)*d.cfg.ConflictFactor
		d.rowFactor = weighted / (float64(total) * d.cfg.ClosedFactor)
	}

	d.coreFactors = make([]float64, d.nCores)
	var totalScore float64
	var totalReqs uint64
	for c := 0; c < d.nCores; c++ {
		totalScore += d.coreScore[c]
		totalReqs += d.coreReqs[c]
	}
	for c := 0; c < d.nCores; c++ {
		if d.coreReqs[c] == 0 || totalScore == 0 {
			d.coreFactors[c] = 1
			continue
		}
		mean := totalScore / float64(totalReqs)
		d.coreFactors[c] = (d.coreScore[c] / float64(d.coreReqs[c])) / mean
	}

	s := &Stats{
		Model:         "dram",
		Policy:        string(d.cfg.Policy),
		Banks:         len(d.banks),
		Reads:         d.reads,
		Writebacks:    d.writebacks,
		Prefetches:    d.prefetches,
		RowHits:       d.hits,
		RowClosed:     d.closed,
		RowConflicts:  d.conflicts,
		MaxQueueDepth: d.maxQueue,
		RowFactor:     d.rowFactor,
		CoreFactors:   d.coreFactors,
	}
	if d.queueSamples > 0 {
		s.AvgQueueDepth = float64(d.queueSum) / float64(d.queueSamples)
	}
	d.stats = s
}

func (d *DRAM) Utilization(busTxns uint64, wallCycles float64) float64 {
	return d.link.Utilization(busTxns, wallCycles)
}

func (d *DRAM) LatencyMultiplier(util float64) float64 {
	d.finalize()
	return d.rowFactor * d.link.LatencyMultiplier(util)
}

func (d *DRAM) CoreFactor(core int) float64 {
	d.finalize()
	if core < 0 || core >= len(d.coreFactors) {
		return 1
	}
	return d.coreFactors[core]
}

func (d *DRAM) Stats() *Stats {
	d.finalize()
	return d.stats
}
