package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// The batched AccessRun promises bit-identical behaviour to the per-line
// Access loop: same hit/miss outcomes, same victims (including dirtiness),
// same counters, same replacement state afterwards. These differential
// tests drive a batched cache and a per-line reference cache through the
// same random traces and require exact agreement, across both the general
// run loop and the clean fast path (accessRunClean), and across geometries
// with full and partial signature words (8, 16 and 12/4 ways).

// accessSeq is the per-line reference for AccessRun: Access on every line,
// collecting misses in RunMiss form.
func accessSeq(c *Cache, first, n uint64, write bool, buf []RunMiss) []RunMiss {
	for line, end := first, first+n; line < end; line++ {
		hit, _, victim := c.Access(line, write)
		if !hit {
			buf = append(buf, RunMiss{Line: line, Victim: victim})
		}
	}
	return buf
}

// diffState reports the first state divergence between two caches, or "".
func diffState(a, b *Cache) string {
	switch {
	case a.Hits != b.Hits || a.Misses != b.Misses:
		return fmt.Sprintf("counters: %d/%d hits, %d/%d misses", a.Hits, b.Hits, a.Misses, b.Misses)
	case a.Writebacks != b.Writebacks:
		return fmt.Sprintf("writebacks: %d vs %d", a.Writebacks, b.Writebacks)
	case a.PrefetchInstalls != b.PrefetchInstalls || a.PrefetchUsefulHits != b.PrefetchUsefulHits:
		return fmt.Sprintf("prefetch counters: %d/%d installs, %d/%d useful",
			a.PrefetchInstalls, b.PrefetchInstalls, a.PrefetchUsefulHits, b.PrefetchUsefulHits)
	}
	for i := range a.tags {
		if a.tags[i] != b.tags[i] {
			return fmt.Sprintf("tags[%d]: %#x vs %#x", i, a.tags[i], b.tags[i])
		}
	}
	for sn := range a.meta {
		am, bm := &a.meta[sn], &b.meta[sn]
		if am.order != bm.order {
			return fmt.Sprintf("order[%d]: %#x vs %#x", sn, am.order, bm.order)
		}
		if am.fill != bm.fill {
			return fmt.Sprintf("fill[%d]: %d vs %d", sn, am.fill, bm.fill)
		}
		if am.mru != bm.mru {
			return fmt.Sprintf("mru[%d]: %d vs %d", sn, am.mru, bm.mru)
		}
		if am.sig0 != bm.sig0 || am.sig1 != bm.sig1 {
			return fmt.Sprintf("sig[%d]: %#x,%#x vs %#x,%#x", sn, am.sig0, am.sig1, bm.sig0, bm.sig1)
		}
	}
	return ""
}

func sameMisses(got, want []RunMiss) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d misses vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("miss %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	return ""
}

func TestAccessRunDifferential(t *testing.T) {
	geoms := []Config{
		{Name: "tiny4w", Size: 4096, Ways: 4},      // 16 sets, heavy conflicts
		{Name: "l1d8w", Size: 32 << 10, Ways: 8},   // Xeon L1, one full sig word
		{Name: "l2n12w", Size: 24 << 10, Ways: 12}, // Niagara ways: partial second sig word
		{Name: "l2x16w", Size: 64 << 10, Ways: 16}, // two full sig words
	}
	// ops mixes name what each trace may do beyond read runs; "clean" keeps
	// the cache on the accessRunClean fast path for its whole life.
	modes := []string{"clean", "writes", "prefetch", "everything"}
	for _, cfg := range geoms {
		for _, mode := range modes {
			t.Run(cfg.Name+"/"+mode, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(cfg.Size) + int64(len(mode))))
				run, ref := New(cfg), New(cfg)
				sets := uint64(cfg.Sets())
				span := sets * uint64(cfg.Ways) * 3 // enough aliasing to evict
				var gotBuf []RunMiss
				for op := 0; op < 4000; op++ {
					switch k := rng.Intn(10); {
					case k < 7: // a run; length may wrap the set index
						first := 1 + rng.Uint64()%span
						n := 1 + rng.Uint64()%(sets+5)
						write := mode != "clean" && mode != "prefetch" && rng.Intn(3) == 0
						gotBuf = run.AccessRun(first, n, write, gotBuf[:0])
						want := accessSeq(ref, first, n, write, nil)
						if d := sameMisses(gotBuf, want); d != "" {
							t.Fatalf("op %d AccessRun(%d,%d,%v) diverged: %s", op, first, n, write, d)
						}
					case k < 8: // single accesses interleave with runs
						line := 1 + rng.Uint64()%span
						write := mode == "writes" || mode == "everything"
						h1, p1, v1 := run.Access(line, write)
						h2, p2, v2 := ref.Access(line, write)
						if h1 != h2 || p1 != p2 || v1 != v2 {
							t.Fatalf("op %d Access(%d) diverged", op, line)
						}
						if h1 && rng.Intn(2) == 0 {
							// The line is now the MRU way on both sides, which
							// is exactly HitAgain's precondition.
							again := mode == "writes" || mode == "everything"
							run.HitAgain(line, again)
							ref.HitAgain(line, again)
						}
					case k < 9:
						if mode == "prefetch" || mode == "everything" {
							line := 1 + rng.Uint64()%span
							i1, v1 := run.Install(line, true)
							i2, v2 := ref.Install(line, true)
							if i1 != i2 || v1 != v2 {
								t.Fatalf("op %d Install(%d) diverged", op, line)
							}
						}
					default:
						if mode == "everything" {
							line := 1 + rng.Uint64()%span
							if rng.Intn(4) == 0 {
								if run.Invalidate(line) != ref.Invalidate(line) {
									t.Fatalf("op %d Invalidate(%d) diverged", op, line)
								}
							} else if run.WriteBack(line) != ref.WriteBack(line) {
								t.Fatalf("op %d WriteBack(%d) diverged", op, line)
							}
						}
					}
					if d := diffState(run, ref); d != "" {
						t.Fatalf("op %d (%s): state diverged: %s", op, mode, d)
					}
				}
			})
		}
	}
}

// FuzzAccessRun decodes arbitrary bytes into a trace and requires the
// batched and per-line forms to agree exactly, on a tiny cache where every
// operation lands in one of four sets.
func FuzzAccessRun(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 9, 3, 2, 17, 0, 3, 9, 0, 0, 200, 9})
	f.Add([]byte{1, 255, 16, 0, 3, 3, 3, 3, 3, 2, 7, 1, 1, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Name: "fuzz", Size: 1024, Ways: 4} // 4 sets
		run, ref := New(cfg), New(cfg)
		var gotBuf []RunMiss
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i]&3, uint64(data[i+1]), uint64(data[i+2])
			line := 1 + a%64
			switch op {
			case 0, 1: // read run, write run
				n := 1 + b%9 // up to 2x the set count: wraps twice
				write := op == 1
				gotBuf = run.AccessRun(line, n, write, gotBuf[:0])
				want := accessSeq(ref, line, n, write, nil)
				if d := sameMisses(gotBuf, want); d != "" {
					t.Fatalf("AccessRun(%d,%d,%v): %s", line, n, write, d)
				}
			case 2:
				i1, v1 := run.Install(line, b&1 == 1)
				i2, v2 := ref.Install(line, b&1 == 1)
				if i1 != i2 || v1 != v2 {
					t.Fatalf("Install(%d) diverged", line)
				}
			case 3:
				if b&1 == 1 {
					if run.Invalidate(line) != ref.Invalidate(line) {
						t.Fatalf("Invalidate(%d) diverged", line)
					}
				} else if run.WriteBack(line) != ref.WriteBack(line) {
					t.Fatalf("WriteBack(%d) diverged", line)
				}
			}
			if d := diffState(run, ref); d != "" {
				t.Fatalf("state diverged after op %d: %s", i/3, d)
			}
		}
	})
}
