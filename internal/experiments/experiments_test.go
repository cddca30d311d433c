package experiments

import (
	"strings"
	"testing"

	"webmm/internal/machine"
	"webmm/internal/sim"
	"webmm/internal/workload"
)

// testRunner uses a coarse scale so the shape assertions run in seconds.
// The committed EXPERIMENTS.md numbers come from finer-scale CLI runs; the
// assertions here are the robust qualitative shapes of the paper.
func testRunner() *Runner {
	return NewRunner(Config{Scale: 32, Warmup: 1, Measure: 2, Seed: 20090615})
}

var testWorkload = workload.MediaWikiRO().Name

func TestOneCoreRegionAndDDBeatDefault(t *testing.T) {
	// Paper Table 4: "Both DDmalloc and the region-based allocator
	// improved the performance of every workload when using only one
	// core on both platforms."
	r := testRunner()
	for _, plat := range []string{"xeon", "niagara"} {
		def := r.Run(phpCell(plat, "default", testWorkload, 1))
		reg := r.Run(phpCell(plat, "region", testWorkload, 1))
		dd := r.Run(phpCell(plat, "ddmalloc", testWorkload, 1))
		if reg.Res.Throughput <= def.Res.Throughput {
			t.Errorf("%s 1 core: region %.1f <= default %.1f", plat,
				reg.Res.Throughput, def.Res.Throughput)
		}
		if dd.Res.Throughput <= def.Res.Throughput {
			t.Errorf("%s 1 core: DDmalloc %.1f <= default %.1f", plat,
				dd.Res.Throughput, def.Res.Throughput)
		}
	}
}

func TestEightCoreXeonDDBestAndRegionCollapses(t *testing.T) {
	// Paper §4.3: DDmalloc has the best 8-core throughput; the region
	// allocator loses its 1-core advantage (and degrades outright for
	// several workloads).
	r := testRunner()
	def := r.Run(phpCell("xeon", "default", testWorkload, 8))
	reg := r.Run(phpCell("xeon", "region", testWorkload, 8))
	dd := r.Run(phpCell("xeon", "ddmalloc", testWorkload, 8))

	if dd.Res.Throughput <= def.Res.Throughput {
		t.Errorf("8-core Xeon: DDmalloc %.1f <= default %.1f",
			dd.Res.Throughput, def.Res.Throughput)
	}
	if dd.Res.Throughput <= reg.Res.Throughput {
		t.Errorf("8-core Xeon: DDmalloc %.1f <= region %.1f",
			dd.Res.Throughput, reg.Res.Throughput)
	}
	// Region's relative standing must collapse from 1 core to 8.
	reg1 := r.Run(phpCell("xeon", "region", testWorkload, 1))
	def1 := r.Run(phpCell("xeon", "default", testWorkload, 1))
	rel1 := reg1.Res.Throughput / def1.Res.Throughput
	rel8 := reg.Res.Throughput / def.Res.Throughput
	if rel8 >= rel1 {
		t.Errorf("region relative throughput grew with cores: %.3f at 1, %.3f at 8", rel1, rel8)
	}
	if rel8 > 1.02 {
		t.Errorf("region still beats default by %.1f%% on 8 Xeon cores; paper shows degradation",
			(rel8-1)*100)
	}
}

func TestRegionBusTrafficExplodesOnXeon(t *testing.T) {
	// Paper Figure 8: region increases L2 misses and bus transactions;
	// DDmalloc reduces bus transactions.
	r := testRunner()
	def := r.Run(phpCell("xeon", "default", testWorkload, 8))
	reg := r.Run(phpCell("xeon", "region", testWorkload, 8))
	dd := r.Run(phpCell("xeon", "ddmalloc", testWorkload, 8))

	defBus := perTxn(def, def.Res.Totals.BusTxns())
	regBus := perTxn(reg, reg.Res.Totals.BusTxns())
	ddBus := perTxn(dd, dd.Res.Totals.BusTxns())
	if regBus <= defBus {
		t.Errorf("region bus txns/txn %.0f <= default %.0f", regBus, defBus)
	}
	if ddBus >= defBus {
		t.Errorf("DDmalloc bus txns/txn %.0f >= default %.0f", ddBus, defBus)
	}
}

func TestRegionCutsAllocatorTimeButInflatesOthers(t *testing.T) {
	// Paper Figure 6: region cuts memory-management CPU by ~85% but
	// slows the rest of the program; DDmalloc cuts it by ~56% without
	// hurting the rest.
	r := testRunner()
	def := r.Run(phpCell("xeon", "default", testWorkload, 8))
	reg := r.Run(phpCell("xeon", "region", testWorkload, 8))
	dd := r.Run(phpCell("xeon", "ddmalloc", testWorkload, 8))

	defMM := def.Res.ClassCyclesPerTxn(sim.ClassAlloc)
	regMM := reg.Res.ClassCyclesPerTxn(sim.ClassAlloc)
	ddMM := dd.Res.ClassCyclesPerTxn(sim.ClassAlloc)
	if regMM > defMM*0.3 {
		t.Errorf("region memory-management time %.0f not <70%% below default %.0f", regMM, defMM)
	}
	if ddMM > defMM*0.6 || ddMM < defMM*0.1 {
		t.Errorf("DDmalloc memory-management time %.0f outside 40-90%% reduction of %.0f", ddMM, defMM)
	}
	defOther := def.Res.CyclesPerTxn() - defMM
	regOther := reg.Res.CyclesPerTxn() - regMM
	ddOther := dd.Res.CyclesPerTxn() - ddMM
	if regOther <= defOther {
		t.Errorf("region 'others' %.0f not slower than default %.0f", regOther, defOther)
	}
	if ddOther > defOther*1.05 {
		t.Errorf("DDmalloc 'others' %.0f slower than default %.0f", ddOther, defOther)
	}
}

func TestFootprintOrderingMatchesFig9(t *testing.T) {
	// Paper Figure 9: DDmalloc ~1.24x default; region ~3x on average,
	// >7x worst case. The exact multiples emerge only at paper scale
	// (allocation granularity — 32 KiB segments, 256 KiB Zend segments
	// — dominates scaled-down footprints), so this test asserts the
	// ordering at a moderate scale; EXPERIMENTS.md records the
	// full-scale ratios.
	r := NewRunner(Config{Scale: 8, Warmup: 1, Measure: 1, Seed: 20090615})
	def := r.Run(phpCell("xeon", "default", testWorkload, 1))
	reg := r.Run(phpCell("xeon", "region", testWorkload, 1))
	dd := r.Run(phpCell("xeon", "ddmalloc", testWorkload, 1))
	if def.Footprint <= 0 {
		t.Fatal("default footprint not measured")
	}
	ddRel := dd.Footprint / def.Footprint
	regRel := reg.Footprint / def.Footprint
	if ddRel < 1.0 || ddRel > 3.0 {
		t.Errorf("DDmalloc footprint %.2fx default, want overhead in (1.0, 3.0) at this scale", ddRel)
	}
	if regRel < 1.5 {
		t.Errorf("region footprint %.2fx default, want a large multiple (paper ~3x)", regRel)
	}
	if regRel < ddRel*0.9 {
		t.Errorf("region footprint (%.2fx) well below DDmalloc (%.2fx)", regRel, ddRel)
	}
}

func TestTable3RegeneratesCalls(t *testing.T) {
	// Scale 8 keeps enough allocation samples per transaction that the
	// size mixture's heavy tail is represented (SPECweb has only ~410
	// mallocs/txn at this scale).
	r := NewRunner(Config{Scale: 8, Warmup: 1, Measure: 2, Seed: 1})
	rows := Table3(r)
	if len(rows) != len(workload.Profiles()) {
		t.Fatalf("Table3 produced %d rows, want %d", len(rows), len(workload.Profiles()))
	}
	for i, p := range workload.Profiles() {
		row := rows[i]
		// Full-scale equivalents must be within the scale-rounding of
		// the paper's counts.
		tol := float64(r.Cfg.Scale)
		if row.Mallocs < float64(p.Mallocs)-tol || row.Mallocs > float64(p.Mallocs)+tol {
			t.Errorf("%s: mallocs %.0f, want ~%d", p.Name, row.Mallocs, p.Mallocs)
		}
		if row.AvgSize < p.AvgSize*0.85 || row.AvgSize > p.AvgSize*1.15 {
			t.Errorf("%s: avg size %.1f, want ~%.1f", p.Name, row.AvgSize, p.AvgSize)
		}
	}
}

func TestFig1RegionShiftsCostToOthers(t *testing.T) {
	r := testRunner()
	// Use the (cheaper) read-only profile shape assertions on the raw
	// cells rather than Fig1's MediaWiki(rw); the rw transaction is 2.7x
	// the work and this is covered by the CLI run.
	def := r.Run(phpCell("xeon", "default", testWorkload, 8))
	reg := r.Run(phpCell("xeon", "region", testWorkload, 8))
	defTotal := def.Res.CyclesPerTxn()
	regMM := reg.Res.ClassCyclesPerTxn(sim.ClassAlloc) / defTotal
	regOther := (reg.Res.CyclesPerTxn() - reg.Res.ClassCyclesPerTxn(sim.ClassAlloc)) / defTotal
	defMM := def.Res.ClassCyclesPerTxn(sim.ClassAlloc) / defTotal
	if regMM >= defMM/2 {
		t.Errorf("Figure 1 shape: region mm %.3f not well below default mm %.3f", regMM, defMM)
	}
	if regOther <= 1-defMM {
		t.Errorf("Figure 1 shape: region others %.3f not above default others %.3f",
			regOther, 1-defMM)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(Config{Scale: 64, Warmup: 1, Measure: 1, Seed: 1})
	c := phpCell("xeon", "ddmalloc", workload.PhpBB().Name, 1)
	a := r.Run(c)
	b := r.Run(c)
	if a.Res.Throughput != b.Res.Throughput {
		t.Fatal("memoized cell returned a different result")
	}
}

func TestScalePlatformPreservesGeometry(t *testing.T) {
	for _, scale := range []int{1, 2, 8, 64, 1024} {
		for _, name := range []string{"xeon", "niagara"} {
			base, err := machine.PlatformByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p := scalePlatform(base, scale)
			if p.L2.Sets() <= 0 {
				t.Fatalf("%s scale %d: invalid L2 geometry", name, scale)
			}
			if p.TLBEntries < 32 {
				t.Fatalf("%s scale %d: TLB floor violated (%d)", name, scale, p.TLBEntries)
			}
		}
	}
}

// TestConfigValidation: Check names every configuration no runner can
// simulate, and NewRunner refuses such a configuration outright.
func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		err string // substring of Check's error; "" means valid
	}{
		{DefaultConfig(), ""},
		{Config{Scale: 1, Warmup: 0, Measure: 1, Fidelity: FidelityFull}, ""},
		{Config{Scale: 4, Measure: 1, Fidelity: FidelitySampled}, ""},
		{Config{Scale: 3, Measure: 1}, "scale 3 must be a power of two"},
		{Config{Scale: 0, Measure: 1}, "scale 0"},
		{Config{Scale: 8, Measure: 0}, "measure 0 must be >= 1"},
		{Config{Scale: 8, Warmup: -1, Measure: 1}, "warmup -1"},
		{Config{Scale: 8, Measure: 1, Fidelity: "exact"}, `unknown fidelity "exact"`},
	} {
		err := tc.cfg.Check()
		if tc.err == "" && err != nil {
			t.Errorf("%+v: unexpected error %v", tc.cfg, err)
		}
		if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%+v: error %v, want one containing %q", tc.cfg, err, tc.err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two scale accepted")
		}
	}()
	NewRunner(Config{Scale: 3})
}
