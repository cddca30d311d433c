package experiments

import (
	"strings"
	"testing"

	"webmm/internal/workload"
)

// TestResolve: Resolve is the only place a cell spec is defaulted,
// rescaled and checked, so every caller (CLI, serve, Study.Cell) rejects
// the same bad specs before any simulation and maps the same good ones to
// the same Cell.
func TestResolve(t *testing.T) {
	r := NewRunner(Config{Scale: 64, Warmup: 1, Measure: 1, Seed: 1})
	rails := workload.Rails().Name
	for _, tc := range []struct {
		name string
		spec CellSpec
		want Cell
		err  string // substring of the error; "" means success
	}{
		{name: "defaults platform",
			spec: CellSpec{Alloc: "ddmalloc", Workload: "phpBB", Cores: 8},
			want: Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 8}},
		{name: "cores 0", spec: CellSpec{Alloc: "ddmalloc", Workload: "phpBB"},
			err: "cores 0 out of range 1..8"},
		{name: "cores 9", spec: CellSpec{Alloc: "ddmalloc", Workload: "phpBB", Cores: 9},
			err: "cores 9 out of range 1..8"},
		{name: "cores 16 on niagara",
			spec: CellSpec{Platform: "niagara", Alloc: "default", Workload: "phpBB", Cores: 16},
			err:  "cores 16 out of range 1..8"},
		{name: "negative cores", spec: CellSpec{Alloc: "ddmalloc", Workload: "phpBB", Cores: -1},
			err: "out of range"},
		{name: "unknown platform", spec: CellSpec{Platform: "vax", Alloc: "ddmalloc", Workload: "phpBB", Cores: 1},
			err: "vax"},
		{name: "unknown allocator", spec: CellSpec{Alloc: "jemalloc", Workload: "phpBB", Cores: 1},
			err: "jemalloc"},
		{name: "unknown workload", spec: CellSpec{Alloc: "ddmalloc", Workload: "WordPress", Cores: 1},
			err: "WordPress"},
		{name: "unknown policy", spec: CellSpec{Alloc: "ddmalloc", Workload: "phpBB", Cores: 1, MemSched: "fifo"},
			err: "fifo"},
		{name: "missing alloc", spec: CellSpec{Workload: "phpBB", Cores: 1},
			err: `needs "alloc"`},
		{name: "missing workload", spec: CellSpec{Alloc: "ddmalloc", Cores: 1},
			err: `"workload"`},
		{name: "bus is the bus model",
			spec: CellSpec{Alloc: "region", Workload: "phpBB", Cores: 2, MemSched: "bus"},
			want: Cell{Platform: "xeon", Alloc: "region", Workload: "phpBB", Cores: 2}},
		{name: "dram policy",
			spec: CellSpec{Alloc: "region", Workload: "phpBB", Cores: 2, MemSched: "frfcfs"},
			want: Cell{Platform: "xeon", Alloc: "region", Workload: "phpBB", Cores: 2, MemSched: "frfcfs"}},
		{name: "ruby defaults to rails and rescales the restart period",
			spec: CellSpec{Alloc: "glibc", Cores: 8, Ruby: true, RestartEvery: 500},
			want: Cell{Platform: "xeon", Alloc: "glibc", Workload: rails, Cores: 8,
				Ruby: true, RestartEvery: r.rubyRestart(500)}},
		{name: "restart period ignored off ruby",
			spec: CellSpec{Alloc: "ddmalloc", Workload: "phpBB", Cores: 1, RestartEvery: 500},
			want: Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 1}},
		{name: "budget passes through",
			spec: CellSpec{Alloc: "ddmalloc", Workload: "phpBB", Cores: 1, Budget: 1 << 20},
			want: Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 1, Budget: 1 << 20}},
	} {
		got, err := r.Resolve(tc.spec)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		case tc.err == "" && got != tc.want:
			t.Errorf("%s: resolved %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// The planners' rescaling and Resolve's agree, so a spec naming the
	// paper's period resolves to the very cell the Ruby figures memoize.
	if got, _ := r.Resolve(CellSpec{Alloc: "glibc", Cores: 8, Ruby: true, RestartEvery: rubyRestartEvery}); got != rubyCell("glibc", r.rubyRestart(rubyRestartEvery)) {
		t.Errorf("Ruby spec resolved to %+v, not the planners' cell", got)
	}
}
