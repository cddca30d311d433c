package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmm/internal/telemetry"
	"webmm/internal/workload"
)

// These tests pin the runner's execution contract on local cells: which
// outcomes of a singleflight leader are memoized, which get a fresh attempt,
// and which reach the cell cache.

// TestExecSingleflightCollapses: concurrent RunContext calls for one cell
// resolve it once, and later calls are served from the memo.
func TestExecSingleflightCollapses(t *testing.T) {
	r := NewRunner(parCfg())
	r.Tel = telemetry.NewLive()
	c := phpCell("xeon", "region", workload.PhpBB().Name, 1)
	const n = 8
	results := make([]CellResult, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = r.RunContext(context.Background(), c)
		}(i)
	}
	wg.Wait()
	if results[0].Failed {
		t.Fatal("cell failed")
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("concurrent RunContext call %d returned a different result", i)
		}
	}
	met := r.Tel.Metrics()
	if got := met.Counter("webmm_cells_total", "", nil).Value(); got != 1 {
		t.Fatalf("%d concurrent runs resolved the cell %d times, want 1", n, got)
	}
	if got := r.Run(c); !reflect.DeepEqual(got, results[0]) {
		t.Fatal("memoized run returned a different result")
	}
	if got := met.Counter("webmm_cells_total", "", nil).Value(); got != 1 {
		t.Fatalf("memoized run re-resolved the cell (%d resolutions)", got)
	}
	if got := met.Counter("webmm_memo_hits_total", "", nil).Value(); got < 1 {
		t.Fatal("memoized run not counted as a memo hit")
	}
}

// TestExecTransientNotMemoized: a deadline failure is environmental — it is
// recorded, but the next call gets a fresh attempt instead of the failed
// verdict, and that attempt matches an undisturbed run.
func TestExecTransientNotMemoized(t *testing.T) {
	cfg := faultCfg()
	c := phpCell("xeon", "default", workload.PhpBB().Name, 1)
	want := NewRunner(cfg).Run(c)

	r := NewRunner(cfg)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if res := r.RunContext(ctx, c); !res.Failed {
		t.Fatal("expired deadline did not fail the first run")
	}
	fails := r.Failures()
	if len(fails) != 1 || !errors.Is(fails[0].Err, context.DeadlineExceeded) {
		t.Fatalf("failures = %v, want one deadline failure", fails)
	}
	got := r.Run(c)
	if got.Failed {
		t.Fatal("second run still failed: the deadline verdict was memoized")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fresh attempt after a deadline failure differs from an undisturbed run")
	}
}

// TestExecDeterministicFailureMemoized: a failure that is the cell's own (a
// configuration error here) memoizes — retrying it would fail the same way.
func TestExecDeterministicFailureMemoized(t *testing.T) {
	r := NewRunner(faultCfg())
	r.Tel = telemetry.NewLive()
	c := Cell{Platform: "xeon", Alloc: "no-such-alloc", Workload: workload.PhpBB().Name, Cores: 1}
	if res := r.Run(c); !res.Failed {
		t.Fatal("deterministic failure did not fail the run")
	}
	if res := r.Run(c); !res.Failed {
		t.Fatal("memoized failure lost")
	}
	if got := r.Tel.Metrics().Counter("webmm_cells_total", "", nil).Value(); got != 1 {
		t.Fatalf("failed cell resolved %d times, want 1 (failure memoized)", got)
	}
	if len(r.Failures()) != 1 {
		t.Fatalf("want 1 recorded failure, got %d", len(r.Failures()))
	}
}

// cancelOnPoll is a caller context that cancels itself on its n-th Err
// poll. The runner checks Err once before an attempt and again at the
// simulation's phase boundaries, so a cancel on the third poll lands inside
// a running simulation, whatever the speed of the host.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int32
}

func newCancelOnPoll(n int32) *cancelOnPoll {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelOnPoll{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *cancelOnPoll) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestExecCancelledContextNotMemoized: cancelling the caller's context while
// the cell is simulating fails that call only; a later call with a live
// context simulates the cell afresh, bit-identical to an undisturbed run.
func TestExecCancelledContextNotMemoized(t *testing.T) {
	cfg := faultCfg()
	c := phpCell("xeon", "default", workload.PhpBB().Name, 1)
	want := NewRunner(cfg).Run(c)

	r := NewRunner(cfg)
	ctx := newCancelOnPoll(3)
	defer ctx.cancel()
	if res := r.RunContext(ctx, c); !res.Failed {
		t.Fatal("run cancelled mid-simulation did not fail")
	}
	if fails := r.Failures(); len(fails) != 1 || !errors.Is(fails[0].Err, context.Canceled) {
		t.Fatalf("failures = %v, want one cancellation", fails)
	}
	got := r.Run(c)
	if got.Failed {
		t.Fatal("cancellation was memoized")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("re-run after cancellation differs from an undisturbed run")
	}
}

// TestExecResultsFeedTheSharedCache: a successful result is written to the
// cell cache, so a second runner sharing the directory is served from it
// without simulating; a Failed result never reaches the cache.
func TestExecResultsFeedTheSharedCache(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg()
	c := phpCell("xeon", "ddmalloc", workload.PhpBB().Name, 1)
	bad := Cell{Platform: "xeon", Alloc: "no-such-alloc", Workload: workload.PhpBB().Name, Cores: 1}

	r1 := NewRunner(cfg)
	r1.Cache = cc
	want := r1.Run(c)
	if want.Failed {
		t.Fatal("cell failed")
	}
	if res := r1.Run(bad); !res.Failed {
		t.Fatal("broken cell did not fail")
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(entries) != 1 {
		t.Fatalf("want 1 cache entry (the successful cell), got %d", len(entries))
	}

	r2 := NewRunner(cfg)
	r2.Cache = cc
	if got := r2.Run(c); !reflect.DeepEqual(got, want) {
		t.Fatal("shared-cache run differs from the simulated result")
	}
	if m := r2.BuildManifest(nil); m.CacheHits != 1 || m.CacheMisses != 0 {
		t.Fatalf("manifest cache hits/misses = %d/%d, want 1/0", m.CacheHits, m.CacheMisses)
	}
}
