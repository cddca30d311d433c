package main

import (
	"math"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the statistic a set of runs is judged by;
// the expected values were computed with CPython 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2, 9.5},
		{[]float64{0.91, 0.95, 1.02, 0.99, 1.10, 0.97, 1.00, 0.93, 1.05, 0.98}, 0.945, 1.0275},
	} {
		q1, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestSpread(t *testing.T) {
	got, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if _, err := spread([]float64{0, 0, 0}); err == nil {
		t.Error("spread of a zero median: want an error")
	}
}

// seq returns 1..n.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	v, ok := percentile(seq(100), 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	v, ok = percentile(seq(40), 0.5)
	if !ok || v != 20 {
		t.Errorf("p50 of 1..40 = %v, %v; want 20, true", v, ok)
	}
}

// TestPercentileRefusesThinTails checks that a percentile is reported only
// with at least ten samples beyond it.
func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 0.9, false}, // rank 90, 9 beyond
		{100, 0.9, true}, // rank 90, 10 beyond
		{19, 0.5, false}, // rank 10, 9 beyond
		{20, 0.5, true},  // rank 10, 10 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{0, 0.5, false},
	} {
		if _, ok := percentile(seq(tc.n), tc.p); ok != tc.want {
			t.Errorf("percentile(%d samples, %v) reportable = %v, want %v", tc.n, tc.p, ok, tc.want)
		}
	}
}

func TestDigestSetCheck(t *testing.T) {
	d := digestSet{}
	if err := d.check("fig1", digest([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := d.check("fig1", digest([]byte("a"))); err != nil {
		t.Errorf("same output twice: %v", err)
	}
	if err := d.check("table3", digest([]byte("b"))); err != nil {
		t.Errorf("new name: %v", err)
	}
	if err := d.check("fig1", digest([]byte("a\n"))); err == nil {
		t.Error("changed output: want an error")
	}
}

// TestDigestsAcrossRuns checks the comparison between runs: a second run
// that reproduces the first passes, a run that changes one output fails on
// exactly that output, and new outputs are added to the store.
func TestDigestsAcrossRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.json")
	first := digestSet{"x": digest([]byte("1")), "y": digest([]byte("2"))}
	stored, err := loadDigests(path)
	if err != nil {
		t.Fatal(err)
	}
	if errs := stored.merge(first); len(errs) != 0 {
		t.Fatalf("first run: %v", errs)
	}
	if err := stored.save(path); err != nil {
		t.Fatal(err)
	}

	stored, err = loadDigests(path)
	if err != nil {
		t.Fatal(err)
	}
	second := digestSet{"x": digest([]byte("1")), "y": digest([]byte("changed")), "z": digest([]byte("3"))}
	errs := stored.merge(second)
	if len(errs) != 1 {
		t.Fatalf("second run: %d mismatches (%v), want 1 (y)", len(errs), errs)
	}
	if _, ok := stored["z"]; !ok {
		t.Error("new output z was not added")
	}
	if stored["y"] != first["y"] {
		t.Error("a mismatching run overwrote the stored digest")
	}
}

func TestCalibrationKernelFrozen(t *testing.T) {
	if got := calibKernel(); got != calibSum {
		t.Fatalf("calibKernel() = %#x, want %#x: the kernel must not change", got, calibSum)
	}
}
