package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webmm/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// goldenCfg pins the configuration of the committed golden outputs. Any
// knob here is part of the golden contract: changing one requires
// regenerating testdata with -update.
func goldenCfg() Config {
	return Config{Scale: 256, Warmup: 1, Measure: 1, Seed: 20090615}
}

// renderFig1Table3 renders Figure 1 and Table 3 the way cmd/webmm does.
func renderFig1Table3(r *Runner) string {
	var b strings.Builder
	b.WriteString(Fig1(r).Table().String())
	b.WriteString("\n")
	b.WriteString(Table3Table(Table3(r)).String())
	b.WriteString("\n")
	return b.String()
}

// TestGoldenFig1Table3Deterministic is the determinism lock on rendered
// results: Figure 1 and Table 3 at the golden scale must reproduce the
// committed testdata byte-for-byte, from both the serial Run loop and the
// parallel RunAll fan-out. An intentional simulator change regenerates the
// file with -update (and, if cell numbers moved, bumps cellCacheVersion).
func TestGoldenFig1Table3Deterministic(t *testing.T) {
	path := filepath.Join("testdata", "golden_fig1_table3.txt")

	serial := NewRunner(goldenCfg())
	got := renderFig1Table3(serial)

	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("serial Fig1+Table3 output diverged from %s\ngot:\n%s", path, got)
	}

	par := NewRunner(goldenCfg())
	par.RunAll(append(par.CellsFor("fig1"), par.CellsFor("table3")...), 4)
	if gotPar := renderFig1Table3(par); gotPar != string(want) {
		t.Errorf("parallel Fig1+Table3 output diverged from %s\ngot:\n%s", path, gotPar)
	}
}

// fingerprintCases pins one cell per cached simulation path. The first
// line of testdata/cell_fingerprint.txt predates the others and carries no
// label, so its bytes stay identical to the historical single-cell file.
func fingerprintCases() []struct {
	cfg  Config
	cell Cell
} {
	golden := goldenCfg()
	sampled := goldenCfg()
	sampled.Measure = 32
	sampled.Fidelity = FidelitySampled
	restart := NewRunner(golden).rubyRestart(rubyRestartEvery)
	return []struct {
		cfg  Config
		cell Cell
	}{
		{golden, phpCell("xeon", "ddmalloc", workload.MediaWikiRO().Name, 2)},
		{golden, phpCell("niagara", "region", workload.MediaWikiRW().Name, 4)},
		{golden, Cell{Platform: "xeon", Alloc: "glibc", Workload: workload.Rails().Name,
			Cores: 2, Ruby: true, RestartEvery: restart}},
		{golden, Cell{Platform: "xeon", Alloc: "region", Workload: workload.MediaWikiRW().Name,
			Cores: 2, MemSched: "frfcfs"}},
		{sampled, phpCell("xeon", "ddmalloc", workload.PhpBB().Name, 2)},
		{golden, Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: workload.PhpBB().Name,
			Cores: 2, Budget: 128 << 20}},
		{golden, Cell{Platform: "xeon", Alloc: "region", Workload: workload.MediaWikiRW().Name,
			Cores: 2, MemSched: "atlas"}},
		{golden, Cell{Platform: "xeon", Alloc: "region", Workload: workload.MediaWikiRW().Name,
			Cores: 2, MemSched: "tcm"}},
		{golden, Cell{Platform: "xeon", Alloc: "region", Workload: workload.MediaWikiRW().Name,
			Cores: 2, MemSched: "bliss"}},
	}
}

// TestCellFingerprint ties full CellResults — every counter, not just the
// rendered columns — to the cell-cache format version, one cell per cached
// path: PHP on both platforms, Ruby with restarts, the DRAM model under
// each scheduling policy, sampled fidelity and a static budget. Each line of the committed file records
// "v<cellCacheVersion> <sha256 of the result JSON>" plus a label; if a
// change moves any number in any result, this fails until the author both
// bumps cellCacheVersion (so stale disk caches cannot serve the old
// numbers) and regenerates the fingerprints with -update.
func TestCellFingerprint(t *testing.T) {
	path := filepath.Join("testdata", "cell_fingerprint.txt")

	var b strings.Builder
	for i, tc := range fingerprintCases() {
		res := NewRunner(tc.cfg).Run(tc.cell)
		if res.Failed {
			t.Fatalf("fingerprint cell %s failed", tc.cell.Key())
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "v%d %s", cellCacheVersion, hex.EncodeToString(sum[:]))
		if i > 0 {
			b.WriteString(" " + tc.cell.Key())
			if tc.cfg.Fidelity != "" {
				b.WriteString(" fidelity:" + tc.cfg.Fidelity)
			}
		}
		b.WriteString("\n")
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fingerprint file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("cell fingerprint mismatch:\n got:\n%swant:\n%s"+
			"(simulator outputs changed: bump cellCacheVersion and rerun with -update)",
			got, want)
	}
}
