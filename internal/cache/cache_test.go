package cache

import (
	"testing"
	"testing/quick"
)

func testCache(size uint64, ways int) *Cache {
	return New(Config{Name: "test", Size: size, Ways: ways})
}

func TestAccessHitAfterMiss(t *testing.T) {
	c := testCache(4096, 4) // 16 sets
	hit, _, _ := c.Access(100, false)
	if hit {
		t.Fatal("first access hit an empty cache")
	}
	hit, _, _ = c.Access(100, false)
	if !hit {
		t.Fatal("second access to same line missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := testCache(4096, 4)           // 16 sets: lines mapping to set 0 are multiples of 16
	lines := []uint64{16, 32, 48, 64} // fill all 4 ways of set 0
	for _, l := range lines {
		c.Access(l, false)
	}
	c.Access(16, false) // touch line 16: now 32 is LRU
	_, _, victim := c.Access(80, false)
	if !victim.Valid || victim.Line != 32 {
		t.Fatalf("evicted %+v, want line 32", victim)
	}
	if !c.Contains(16) || c.Contains(32) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := testCache(4096, 2) // 32 sets
	c.Access(32, true)      // dirty line in set 0
	c.Access(64, false)
	_, _, victim := c.Access(96, false) // evicts LRU = 32 (dirty)
	if !victim.Valid || victim.Line != 32 || !victim.Dirty {
		t.Fatalf("victim = %+v, want dirty line 32", victim)
	}
	if c.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := testCache(4096, 2)
	c.Access(32, false) // clean install
	c.Access(32, true)  // write hit dirties it
	c.Access(64, false)
	_, _, victim := c.Access(96, false)
	if !victim.Dirty {
		t.Fatal("write hit did not mark line dirty")
	}
}

func TestInstallPrefetchTracking(t *testing.T) {
	c := testCache(4096, 4)
	c.Install(100, true)
	if c.PrefetchInstalls != 1 {
		t.Fatalf("PrefetchInstalls = %d, want 1", c.PrefetchInstalls)
	}
	hit, wasPrefetched, _ := c.Access(100, false)
	if !hit || !wasPrefetched {
		t.Fatalf("access to prefetched line: hit=%v prefetched=%v", hit, wasPrefetched)
	}
	// The prefetched bit is consumed by first use.
	hit, wasPrefetched, _ = c.Access(100, false)
	if !hit || wasPrefetched {
		t.Fatalf("second access: hit=%v prefetched=%v, want hit, not prefetched", hit, wasPrefetched)
	}
	if c.PrefetchUsefulHits != 1 {
		t.Fatalf("PrefetchUsefulHits = %d, want 1", c.PrefetchUsefulHits)
	}
}

func TestInstallExistingLineIsNoop(t *testing.T) {
	c := testCache(4096, 2)
	c.Access(32, true)
	installed, v := c.Install(32, true)
	if installed || v.Valid {
		t.Fatalf("install of resident line: installed=%v, victim %+v", installed, v)
	}
	// Line must still be dirty (install must not clear flags).
	c.Access(64, false)
	_, _, victim := c.Access(96, false)
	if !victim.Dirty {
		t.Fatal("re-install cleared the dirty bit")
	}
}

func TestInvalidate(t *testing.T) {
	c := testCache(4096, 2)
	c.Access(32, true)
	if dirty := c.Invalidate(32); !dirty {
		t.Fatal("Invalidate of dirty line returned clean")
	}
	if c.Contains(32) {
		t.Fatal("line still resident after Invalidate")
	}
	if dirty := c.Invalidate(32); dirty {
		t.Fatal("Invalidate of absent line returned dirty")
	}
}

func TestCapacityWorkingSetProperty(t *testing.T) {
	// A working set that fits in the cache must have a near-perfect hit
	// rate after warmup; one that is 4x the capacity must thrash.
	c := testCache(32*1024, 8) // 512 lines
	fits := func(lines uint64) float64 {
		c.Reset()
		for pass := 0; pass < 8; pass++ {
			for l := uint64(1); l <= lines; l++ {
				c.Access(l, false)
			}
		}
		return float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	small := fits(256)  // half capacity
	large := fits(2048) // 4x capacity
	if small < 0.85 {
		t.Errorf("fitting working set hit rate %.3f, want > 0.85", small)
	}
	if large > 0.10 {
		t.Errorf("thrashing working set hit rate %.3f, want < 0.10 (LRU on a cyclic scan)", large)
	}
}

func TestCacheDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		c := testCache(16*1024, 4)
		state := uint64(12345)
		for i := 0; i < 20000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			c.Access(state%4096+1, state&1 == 0)
		}
		return c.Hits, c.Misses
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("nondeterministic: run1 %d/%d, run2 %d/%d", h1, m1, h2, m2)
	}
}

func TestTLBHitMissLRU(t *testing.T) {
	tlb := NewTLB(4)
	keys := []uint64{Key(0x1000, 12), Key(0x2000, 12), Key(0x3000, 12), Key(0x4000, 12)}
	for _, k := range keys {
		if tlb.Access(k) {
			t.Fatal("cold TLB access hit")
		}
	}
	for _, k := range keys {
		if !tlb.Access(k) {
			t.Fatal("warm TLB access missed")
		}
	}
	// Insert a fifth key: evicts LRU (keys[0], refreshed order above means
	// keys[0] is the oldest touched).
	tlb.Access(Key(0x9000, 12))
	if tlb.Access(keys[0]) {
		t.Fatal("evicted entry still hit")
	}
}

func TestTLBLargePagesCoverMoreAddresses(t *testing.T) {
	misses := func(shift uint8) uint64 {
		tlb := NewTLB(16)
		// Touch 4 MiB of addresses at 4 KiB strides, twice.
		for pass := 0; pass < 2; pass++ {
			for a := uint64(0x10000000); a < 0x10000000+4<<20; a += 4096 {
				tlb.Access(Key(a, shift))
			}
		}
		return tlb.Misses
	}
	small := misses(12) // 1024 distinct 4 KiB pages >> 16 entries: thrash
	large := misses(22) // 1 distinct 4 MiB page: 1 miss
	if large >= small/100 {
		t.Fatalf("large-page misses %d vs small-page %d: want >100x reduction", large, small)
	}
}

func TestKeyDistinguishesPageSizes(t *testing.T) {
	f := func(addr uint64) bool {
		return Key(addr, 12) != Key(addr, 22) || addr>>12 == 0 && addr>>22 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefetcherLocksOntoAscendingStream(t *testing.T) {
	p := NewPrefetcher(8, 4)
	var issued []uint64
	for l := uint64(100); l < 110; l++ {
		issued = append(issued, p.OnMiss(l)...)
	}
	if len(issued) == 0 {
		t.Fatal("ascending miss stream triggered no prefetches")
	}
	// Prefetches must be ahead of the miss stream.
	for _, l := range issued {
		if l <= 100 {
			t.Fatalf("prefetched line %d is behind the stream", l)
		}
	}
}

func TestPrefetcherIgnoresRandomMisses(t *testing.T) {
	p := NewPrefetcher(8, 4)
	state := uint64(99)
	total := 0
	for i := 0; i < 1000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		total += len(p.OnMiss(state % (1 << 30)))
	}
	if total > 20 {
		t.Fatalf("random misses triggered %d prefetches, want ~0", total)
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	p := NewPrefetcher(8, 2)
	got := 0
	for i := uint64(0); i < 20; i++ {
		got += len(p.OnMiss(1000 + i))
		got += len(p.OnMiss(500000 + i))
	}
	if got < 30 {
		t.Fatalf("two interleaved streams produced only %d prefetches", got)
	}
}

func TestNilPrefetcherIsSafe(t *testing.T) {
	var p *Prefetcher
	if lines := p.OnMiss(42); lines != nil {
		t.Fatalf("nil prefetcher returned %v", lines)
	}
	p.Reset() // must not panic
}
