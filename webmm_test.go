package webmm_test

import (
	"testing"

	"webmm"
)

func TestSandboxAllocatorRoundTrip(t *testing.T) {
	sb := webmm.NewSandbox(webmm.Xeon(), 1)
	for _, info := range webmm.Allocators() {
		a, err := sb.NewAllocator(info.Name)
		if err != nil {
			t.Fatalf("NewAllocator(%q): %v", info.Name, err)
		}
		p := a.Malloc(128)
		if p == 0 {
			t.Fatalf("%s: null pointer", info.Name)
		}
		sb.Touch(p, 128, true)
		if a.SupportsFree() {
			a.Free(p)
		}
	}
	sb.Measure()
	res := sb.Result()
	if res.Totals.Instr == 0 {
		t.Fatal("no instructions measured through the sandbox")
	}
}

func TestSandboxDDmallocOptions(t *testing.T) {
	sb := webmm.NewSandbox(webmm.Niagara(), 2)
	dd := sb.NewDDmalloc(webmm.DDOptions{SegmentSize: 64 * 1024, LargePages: true, PID: 3})
	p := dd.Malloc(100)
	q := dd.Malloc(100)
	if q-p != 104 {
		t.Fatalf("objects %d apart, want 104 (headerless class packing)", q-p)
	}
}

func TestSandboxMeasureProducesThroughput(t *testing.T) {
	sb := webmm.NewSandbox(webmm.Xeon(), 3)
	dd := sb.NewDDmalloc(webmm.DDOptions{})
	for txn := 0; txn < 2; txn++ {
		for i := 0; i < 500; i++ {
			p := dd.Malloc(64)
			sb.Touch(p, 64, true)
			sb.Work(100)
			dd.Free(p)
		}
		dd.FreeAll()
		if txn == 0 {
			sb.Warm()
		} else {
			sb.Measure()
		}
	}
	res := sb.Result()
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if res.CyclesPerTxn() <= 0 {
		t.Fatal("no cycles attributed")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	wls := webmm.Workloads()
	if len(wls) != 7 {
		t.Fatalf("got %d workloads, want the paper's 7", len(wls))
	}
	for _, w := range wls {
		got, err := webmm.WorkloadByName(w.Name)
		if err != nil || got.Mallocs != w.Mallocs {
			t.Errorf("WorkloadByName(%q) mismatch: %v", w.Name, err)
		}
	}
}

func TestSizeClassesExposed(t *testing.T) {
	classes := webmm.SizeClasses()
	if len(classes) == 0 || classes[0] != 8 {
		t.Fatalf("size classes = %v", classes)
	}
	if webmm.RoundedSize(100) != 104 {
		t.Fatalf("RoundedSize(100) = %d, want 104", webmm.RoundedSize(100))
	}
}

func TestStudyCompare(t *testing.T) {
	study, err := webmm.NewStudy(
		webmm.WithScale(64),
		webmm.WithRounds(1, 1),
		webmm.WithJobs(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := study.CompareAllocators("phpBB", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 3 {
		t.Fatalf("CompareAllocators returned %d allocators, want 3", len(rel))
	}
	if rel[webmm.AllocDefault] != 1.0 {
		t.Fatalf("default relative throughput = %v, want 1.0", rel[webmm.AllocDefault])
	}
	for name, v := range rel {
		if v <= 0 {
			t.Errorf("%s relative throughput %v", name, v)
		}
	}
}

func TestStudyOptionValidation(t *testing.T) {
	if _, err := webmm.NewStudy(webmm.WithScale(48)); err == nil {
		t.Error("WithScale(48) accepted; want power-of-two error")
	}
	if _, err := webmm.NewStudy(webmm.WithPlatform("pdp11")); err == nil {
		t.Error("WithPlatform(pdp11) accepted; want unknown-platform error")
	}
	if _, err := webmm.NewStudy(webmm.WithFaults("bogus:1")); err == nil {
		t.Error("WithFaults(bogus:1) accepted; want parse error")
	}
	if _, err := webmm.NewStudy(webmm.WithRounds(0, 0)); err == nil {
		t.Error("WithRounds(0,0) accepted; want at least one measured round")
	}
	if _, err := webmm.NewStudy(webmm.WithFidelity("exact")); err == nil {
		t.Error(`WithFidelity("exact") accepted; want unknown-fidelity error`)
	}
	if _, err := webmm.NewStudy(webmm.WithMemorySystem("hbm")); err == nil {
		t.Error("WithMemorySystem(hbm) accepted; want unknown-memory-system error")
	}
	if _, err := webmm.NewStudy(webmm.WithMemSchedPolicy("fifo")); err == nil {
		t.Error("WithMemSchedPolicy(fifo) accepted; want unknown-policy error")
	}
}

func TestStudyMemSchedCell(t *testing.T) {
	study, err := webmm.NewStudy(
		webmm.WithScale(1024),
		webmm.WithRounds(1, 1),
		webmm.WithJobs(1),
		webmm.WithMemSchedPolicy(webmm.MemSchedFRFCFS),
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := webmm.CellSpec{Alloc: webmm.AllocRegion, Workload: "phpBB", Cores: 2}

	// The study default (frfcfs) applies when the spec is silent...
	dram, err := study.Cell(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dram.Machine.Mem == nil || dram.Machine.Mem.Policy != "frfcfs" {
		t.Fatalf("DRAM cell carries no frfcfs stats: %+v", dram.Machine.Mem)
	}
	if total := dram.Machine.Mem.Total(); total == 0 {
		t.Error("DRAM cell recorded no transactions")
	}

	// ...and "bus" opts one cell back out.
	spec.MemSched = "bus"
	bus, err := study.Cell(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bus.Machine.Mem != nil {
		t.Fatalf("bus cell carries memory-system stats: %+v", bus.Machine.Mem)
	}

	spec.MemSched = "fifo"
	if _, err := study.Cell(spec); err == nil {
		t.Error("Cell with unknown policy accepted; want registry error")
	}

	// Core counts outside the platform's 1..8 are errors, not failed cells.
	spec.MemSched = ""
	for _, cores := range []int{0, 9, 16} {
		spec.Cores = cores
		if _, err := study.Cell(spec); err == nil {
			t.Errorf("Cell with %d cores accepted; want out-of-range error", cores)
		}
	}
	if fails := study.Failures(); len(fails) != 0 {
		t.Errorf("rejected specs reached the simulator: %v", fails)
	}

	if got := webmm.MemSchedPolicies(); len(got) != 4 || got[0].Name != webmm.MemSchedFRFCFS {
		t.Errorf("MemSchedPolicies() = %+v", got)
	}
}

func TestStudyCellAndExperiment(t *testing.T) {
	study, err := webmm.NewStudy(
		webmm.WithScale(1024),
		webmm.WithRounds(1, 1),
		webmm.WithSeed(11),
		webmm.WithJobs(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := study.Cell(webmm.CellSpec{Alloc: webmm.AllocDDmalloc, Workload: "MediaWiki(ro)", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Machine.Throughput <= 0 || out.Footprint <= 0 || out.Calls.Mallocs == 0 {
		t.Fatalf("cell outcome incomplete: %+v", out)
	}

	ruby, err := study.Cell(webmm.CellSpec{Alloc: webmm.AllocGlibc, Ruby: true, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ruby.Machine.Throughput <= 0 {
		t.Fatalf("ruby cell outcome incomplete: %+v", ruby)
	}

	res, err := study.RunExperiment(webmm.ExpFig1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || res.Tables[0].String() == "" {
		t.Fatalf("fig1 output incomplete: %+v", res)
	}
	if _, err := study.RunExperiment("fig99"); err == nil {
		t.Error("RunExperiment(fig99) accepted; want unknown-experiment error")
	}
	if err := study.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistriesExposed(t *testing.T) {
	allocs := webmm.Allocators()
	if len(allocs) != 8 {
		t.Fatalf("got %d allocators, want 8", len(allocs))
	}
	studies := map[string]bool{}
	for _, a := range allocs {
		if a.Doc == "" || a.Study == "" {
			t.Errorf("allocator %s missing doc or study", a.Name)
		}
		studies[a.Study] = true
	}
	for _, want := range []string{"php", "ruby", "extra"} {
		if !studies[want] {
			t.Errorf("no allocator belongs to the %q study", want)
		}
	}

	exps := webmm.Experiments()
	if len(exps) != 14 {
		t.Fatalf("got %d experiments, want the paper's 12 plus the heap-limit and memsched extensions", len(exps))
	}
	if exps[0].Name != webmm.ExpFig1 || exps[len(exps)-1].Name != webmm.ExpMemSched {
		t.Errorf("experiment order wrong: first %s last %s", exps[0].Name, exps[len(exps)-1].Name)
	}
	for _, e := range exps {
		if e.Ref == "" || e.Doc == "" || e.Example == "" {
			t.Errorf("experiment %s missing ref, doc, or example", e.Name)
		}
		extra := e.Name == webmm.ExpHeapLimit || e.Name == webmm.ExpMemSched
		if e.Extra != extra {
			t.Errorf("experiment %s Extra = %v; only the extensions should be extra", e.Name, e.Extra)
		}
	}
}

func TestStudyGlobalBudgetAndCellBudget(t *testing.T) {
	spec := webmm.CellSpec{Alloc: webmm.AllocDefault, Workload: "phpBB", Cores: 1}

	free, err := webmm.NewStudy(webmm.WithScale(64), webmm.WithRounds(1, 1), webmm.WithJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := free.Cell(spec)
	if err != nil {
		t.Fatal(err)
	}

	// A global budget the load never presses against must leave every
	// number bit-identical to the unbudgeted study.
	budgeted, err := webmm.NewStudy(
		webmm.WithScale(64),
		webmm.WithRounds(1, 1),
		webmm.WithJobs(1),
		webmm.WithGlobalBudget(4<<30),
		webmm.WithPressurePolicy(webmm.PressurePolicy{DegradeAt: 0.7, QueueAt: 0.85, ShedAt: 0.95}),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := budgeted.Cell(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("unpressured outcome diverged under a slack global budget:\n got %+v\nwant %+v", got, want)
	}
	if err := budgeted.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}

	// A static per-cell budget above the allocator's memory floor succeeds...
	roomy := spec
	roomy.Budget = 2 << 20
	if out, err := free.Cell(roomy); err != nil {
		t.Fatalf("Cell with 2MiB budget: %v", err)
	} else if out.Machine.Throughput != want.Machine.Throughput {
		t.Errorf("2MiB budget changed throughput: %v vs %v", out.Machine.Throughput, want.Machine.Throughput)
	}

	// ...and one below it is a deterministic error, not zeros.
	tight := spec
	tight.Budget = 256 << 10
	if _, err := free.Cell(tight); err == nil {
		t.Error("Cell with a 256KiB budget succeeded; want the allocator's construction to fail")
	}
}
