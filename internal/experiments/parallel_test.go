package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"webmm/internal/telemetry"
	"webmm/internal/workload"
)

// parCfg is a cheap config for the scheduler tests: the phpBB matrix below
// simulates in well under a second per cell at this scale.
func parCfg() Config { return Config{Scale: 64, Warmup: 1, Measure: 1, Seed: 7} }

// parMatrix is a multi-cell plan covering both platforms, every PHP
// allocator, and two core counts.
func parMatrix() []Cell {
	wl := workload.PhpBB().Name
	var cells []Cell
	for _, plat := range []string{"xeon", "niagara"} {
		for _, alloc := range PHPAllocators() {
			for _, cores := range []int{1, 2} {
				cells = append(cells, phpCell(plat, alloc, wl, cores))
			}
		}
	}
	return cells
}

// TestRunAllMatchesSerial is the determinism contract of the scheduler:
// fanning a matrix out over 4 workers must produce CellResults deep-equal
// to the serial Run loop, and RunAll with jobs=1 (the CLI's -jobs 1 path)
// must match as well.
func TestRunAllMatchesSerial(t *testing.T) {
	cells := parMatrix()

	serial := NewRunner(parCfg())
	want := make([]CellResult, len(cells))
	for i, c := range cells {
		want[i] = serial.Run(c)
	}

	par := NewRunner(parCfg())
	got := par.RunAll(cells, 4)
	for i := range cells {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("cell %+v: parallel result differs from serial", cells[i])
		}
	}

	one := NewRunner(parCfg())
	if gotOne := one.RunAll(cells, 1); !reflect.DeepEqual(want, gotOne) {
		t.Error("RunAll(jobs=1) differs from the serial Run loop")
	}
}

// TestConcurrentRunSameCell races many Run calls for one cell: they must
// collapse into one simulation (the singleflight), and under
// `go test -race` this also proves the memo map and singleflight are
// data-race free.
func TestConcurrentRunSameCell(t *testing.T) {
	r := NewRunner(parCfg())
	r.Tel = telemetry.NewLive()
	c := phpCell("xeon", "ddmalloc", workload.PhpBB().Name, 1)
	const n = 8
	results := make([]CellResult, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(c)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("concurrent Run call %d returned a different result", i)
		}
	}
	if got := r.Tel.Metrics().Counter("webmm_cells_total", "", nil).Value(); got != 1 {
		t.Fatalf("8 concurrent runs of one cell resolved it %d times, want 1", got)
	}
}

// TestRunAllDedupsDuplicates: duplicate cells in a plan share one
// simulation but still fill every output slot, in order.
func TestRunAllDedupsDuplicates(t *testing.T) {
	r := NewRunner(parCfg())
	c := phpCell("xeon", "default", workload.PhpBB().Name, 1)
	d := phpCell("xeon", "region", workload.PhpBB().Name, 1)
	got := r.RunAll([]Cell{c, d, c, c}, 2)
	if len(got) != 4 {
		t.Fatalf("RunAll returned %d results for 4 cells", len(got))
	}
	if !reflect.DeepEqual(got[0], got[2]) || !reflect.DeepEqual(got[0], got[3]) {
		t.Error("duplicate cells returned differing results")
	}
	if got[1].Cell != d {
		t.Error("results not in input order")
	}
}

// TestCellPlannersCoverFigures: every planner yields cells, and a plan must
// cover its figure exactly — running the plan first, the figure function
// may not simulate any cell the planner missed.
func TestCellPlannersCoverFigures(t *testing.T) {
	r := NewRunner(parCfg())
	for _, name := range []string{"fig1", "table3", "fig5", "fig6", "fig7",
		"table4", "fig8", "fig9", "fig10", "fig11", "fig12", "all"} {
		if len(r.CellsFor(name)) == 0 {
			t.Errorf("CellsFor(%q) is empty", name)
		}
	}
	if r.CellsFor("table2") != nil {
		t.Error("table2 simulates nothing but has a cell plan")
	}
	if r.CellsFor("nonsense") != nil {
		t.Error("unknown experiment has a cell plan")
	}

	// Coverage check on the biggest PHP plan (Table 4) and the Ruby sweep
	// (Figure 12), at a coarse scale to stay fast.
	cov := NewRunner(Config{Scale: 1024, Warmup: 1, Measure: 1, Seed: 7})
	cov.RunAll(cov.Table4Cells(), 4)
	before := len(cov.cells)
	Table4(cov)
	if after := len(cov.cells); after != before {
		t.Errorf("Table4 simulated %d cells beyond its plan", after-before)
	}
	cov.RunAll(cov.Fig12Cells(), 4)
	before = len(cov.cells)
	Fig12(cov)
	if after := len(cov.cells); after != before {
		t.Errorf("Fig12 simulated %d cells beyond its plan", after-before)
	}
}

// TestTimeoutLeavesNoGoroutines is the regression test for the old watchdog
// timeout, which returned to the caller while the simulation goroutine kept
// running (burning CPU and writing telemetry) until the cell finished on its
// own. Cancellation is now cooperative on the caller's goroutine, so after a
// forced timeout the process must be back to its baseline goroutine count —
// nothing abandoned, nothing leaked.
func TestTimeoutLeavesNoGoroutines(t *testing.T) {
	// Scale 16 cells run for hundreds of milliseconds; a 1ms budget is
	// guaranteed to expire mid-simulation, never before it starts.
	r := NewRunner(Config{Scale: 16, Warmup: 1, Measure: 1, Seed: 7})
	r.Timeout = time.Millisecond
	wl := workload.PhpBB().Name

	base := runtime.NumGoroutine()
	cells := []Cell{
		phpCell("xeon", "default", wl, 1),
		phpCell("xeon", "region", wl, 1),
		phpCell("niagara", "ddmalloc", wl, 1),
	}
	for _, res := range r.RunAll(cells, 2) {
		if !res.Failed {
			t.Fatal("1ms timeout did not fail the cell")
		}
	}
	if len(r.Failures()) != len(cells) {
		t.Fatalf("want %d recorded timeouts, got %d", len(cells), len(r.Failures()))
	}

	// RunAll's workers and the context timers need a moment to unwind;
	// poll rather than sleep a fixed (flaky) amount.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after timeout: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledCellNotPoisoned: a cancellation failure is environmental, not
// a property of the cell, so it must not be memoized — the next caller with
// a live context gets a real simulation, bit-identical to an undisturbed run.
func TestCancelledCellNotPoisoned(t *testing.T) {
	cfg := parCfg()
	c := phpCell("xeon", "ddmalloc", workload.PhpBB().Name, 1)

	want := NewRunner(cfg).Run(c)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(cfg)
	if res := r.RunContext(ctx, c); !res.Failed {
		t.Fatal("cancelled context did not fail the cell")
	}
	if len(r.Failures()) != 1 {
		t.Fatalf("want 1 recorded cancellation, got %d", len(r.Failures()))
	}
	got := r.Run(c)
	if got.Failed {
		t.Fatal("cancellation failure was memoized: live re-run still failed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("re-run after cancellation differs from an undisturbed run")
	}
	if len(r.Failures()) != 1 {
		t.Error("successful re-run recorded a spurious failure")
	}
}

// TestCellCacheConcurrentStore: two runners in one process (webmm serve)
// share a cache directory, so store must be atomic under concurrency — a
// torn or cross-linked temp file would corrupt an entry another request is
// loading. Races many stores of the same and distinct cells and checks every
// entry round-trips and no temp files are left behind.
func TestCellCacheConcurrentStore(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parCfg()
	wl := workload.PhpBB().Name
	cells := []Cell{
		phpCell("xeon", "default", wl, 1),
		phpCell("xeon", "region", wl, 2),
		phpCell("niagara", "ddmalloc", wl, 4),
	}
	results := make([]CellResult, len(cells))
	for i, c := range cells {
		results[i] = CellResult{Cell: c, TxnsPerStream: float64(i + 1)}
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				i := (g + rep) % len(cells)
				cc.store(cfg, cells[i], results[i])
			}
		}(g)
	}
	wg.Wait()

	for i, c := range cells {
		got, ok := cc.load(cfg, c)
		if !ok || !reflect.DeepEqual(got, results[i]) {
			t.Errorf("cell %d does not round-trip after concurrent stores", i)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("concurrent stores left temp files behind: %v", tmps)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(entries) != len(cells) {
		t.Errorf("want %d cache entries, got %d", len(cells), len(entries))
	}
}

// TestCellCache exercises the on-disk cache: store-on-miss, load in a fresh
// runner, config-keyed invalidation, and corruption tolerance.
func TestCellCache(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parCfg()
	c := phpCell("xeon", "region", workload.PhpBB().Name, 1)

	r1 := NewRunner(cfg)
	r1.Cache = cc
	want := r1.Run(c)

	// The entry must be on disk and loadable directly.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want 1 cache entry, got %d (err %v)", len(entries), err)
	}
	if got, ok := cc.load(cfg, c); !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("cache load does not round-trip the stored result")
	}

	// A fresh runner (a new process, effectively) must serve it from disk
	// and return an identical result.
	r2 := NewRunner(cfg)
	r2.Cache = cc
	if got := r2.Run(c); !reflect.DeepEqual(got, want) {
		t.Error("cached result differs from simulated result")
	}

	// Any config change keys differently: no stale hits.
	cfg2 := cfg
	cfg2.Seed++
	if _, ok := cc.load(cfg2, c); ok {
		t.Error("cache hit across differing configs")
	}

	// A corrupted entry is ignored and the cell re-simulated bit-identically.
	if err := os.WriteFile(entries[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cc.load(cfg, c); ok {
		t.Error("corrupted cache entry satisfied a load")
	}
	r3 := NewRunner(cfg)
	r3.Cache = cc
	if got := r3.Run(c); !reflect.DeepEqual(got, want) {
		t.Error("re-simulated result after corruption differs")
	}

	// A nil cache is inert.
	var nilCache *CellCache
	if _, ok := nilCache.load(cfg, c); ok {
		t.Error("nil cache returned a hit")
	}
	nilCache.store(cfg, c, want)
}
