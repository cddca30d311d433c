// Package nursery models the allocation behaviour of a copying-collector
// young generation, the paper's Section 5 discussion: "Many of these
// virtual machines, especially those using copying garbage collectors,
// allocate heap memory for newly created objects in a similar way to the
// region-based allocators ... allocated objects are not freed until the
// heap becomes full ... Hence the virtual machines may suffer from the
// increased bus traffic on multicore processors, just as the region-based
// allocator suffers in the PHP runtime."
//
// The model: objects bump-allocate in a nursery; Free is only a death note
// (the mutator dropped its reference — memory is NOT reused); when the
// nursery fills, a minor collection copies the still-live objects to the
// old generation and resets the bump pointer to the nursery base,
// *reusing the same addresses*. The crucial parameter is the nursery size:
//
//   - a nursery larger than the cache behaves like the region allocator —
//     every allocation streams through cold lines, dead objects are written
//     back uselessly, and bus traffic grows with core count;
//   - a small nursery (the paper cites MicroPhase's aggressive early
//     collection) is recycled while its lines are still cache-resident,
//     recovering most of DDmalloc's reuse advantage at the cost of more
//     frequent collections.
//
// The ablation bench over NurserySize regenerates exactly that trade-off.
package nursery

import (
	"fmt"

	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

const (
	costAlloc   = 6   // bump + class-free allocation
	costGCFixed = 400 // collection setup/scan bookkeeping
	costPerCopy = 24  // per surviving object: copy loop overhead
	costDeath   = 2   // death note (reference drop)
	oldGenChunk = 4 * mem.MiB
	codeSize    = 6 * mem.KiB
)

// Allocator is the copying-nursery model. It implements heap.Allocator,
// with Free recording a death (no reuse) and FreeAll unsupported (the GC,
// not the application, empties the heap).
type Allocator struct {
	env *sim.Env

	nursery mem.Mapping
	next    mem.Addr

	// live objects in the nursery: address -> size.
	liveNursery map[heap.Ptr]uint64
	// oldGen tracks tenured bytes; old-generation collection is out of
	// scope (the paper's discussion concerns the nursery).
	oldChunks []mem.Mapping
	oldNext   mem.Addr
	oldUsed   uint64

	collections uint64
	tenured     uint64

	peak  uint64
	stats heap.Stats
}

// New builds a nursery of the given size (the §5 knob).
func New(env *sim.Env, nurserySize uint64) *Allocator {
	if nurserySize < 64*mem.KiB {
		panic(fmt.Sprintf("nursery: size %d too small", nurserySize))
	}
	a := &Allocator{
		env:         env,
		nursery:     env.AS.Map(nurserySize, 0, mem.SmallPages),
		liveNursery: make(map[heap.Ptr]uint64),
	}
	a.next = a.nursery.Base
	if !a.addOldChunk() {
		panic("nursery: cannot map initial old-generation chunk")
	}
	return a
}

func (a *Allocator) addOldChunk() bool {
	c, err := a.env.AS.TryMap(oldGenChunk, 0, mem.SmallPages)
	if err != nil {
		return false
	}
	a.env.Instr(400, sim.ClassOS)
	a.oldChunks = append(a.oldChunks, c)
	a.oldNext = c.Base
	return true
}

// Name implements heap.Allocator.
func (a *Allocator) Name() string { return "gc-nursery" }

// CodeSize implements heap.Allocator.
func (a *Allocator) CodeSize() uint64 { return codeSize }

// SupportsFree implements heap.Allocator: Free is accepted (a death note)
// but reclaims nothing until the next collection.
func (a *Allocator) SupportsFree() bool { return true }

// SupportsFreeAll implements heap.Allocator: there is no application-driven
// bulk free in a GC runtime — that is the paper's §5 point.
func (a *Allocator) SupportsFreeAll() bool { return false }

// FreeAll implements heap.Allocator by panicking.
func (a *Allocator) FreeAll() { panic("nursery: GC-managed heaps have no freeAll") }

// Stats implements heap.Allocator.
func (a *Allocator) Stats() heap.Stats { return a.stats }

// Malloc implements heap.Allocator: bump in the nursery, collecting when
// full. Objects above a quarter of the nursery tenure directly.
func (a *Allocator) Malloc(size uint64) heap.Ptr {
	if size == 0 {
		size = 1
	}
	a.env.RecordAlloc(size)
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	rounded := (size + 7) &^ 7
	a.stats.BytesAllocated += rounded
	if rounded > a.nursery.Size/4 {
		return a.allocOld(rounded)
	}
	a.env.Instr(costAlloc, sim.ClassAlloc)
	if a.next+mem.Addr(rounded) > a.nursery.End() {
		if !a.Collect() {
			return 0 // OOM: the old generation cannot grow
		}
	}
	p := a.next
	a.next += mem.Addr(rounded)
	a.liveNursery[p] = rounded
	return p
}

// Free implements heap.Allocator as a death note: the object stops being
// live for the next collection, but its memory is not reused.
func (a *Allocator) Free(p heap.Ptr) {
	if p == 0 {
		return
	}
	a.stats.Frees++
	a.env.Instr(costDeath, sim.ClassAlloc)
	delete(a.liveNursery, p)
}

// Realloc implements heap.Allocator: always allocate-and-copy (arrays grow
// by copying in GC runtimes too).
func (a *Allocator) Realloc(p heap.Ptr, oldSize, newSize uint64) heap.Ptr {
	a.stats.Reallocs++
	np := a.Malloc(newSize)
	if np == 0 {
		return 0 // OOM: the old object stays valid
	}
	if p != 0 {
		n := oldSize
		if newSize < n {
			n = newSize
		}
		a.env.Copy(np, p, n, sim.ClassAlloc)
		a.Free(p)
	}
	return np
}

// Collect runs a minor collection: copy every live nursery object to the
// old generation, then reset the bump pointer to the nursery base. The
// nursery's addresses are reused immediately — warm if the nursery fits the
// cache, cold if it does not. It reports false when the old generation
// cannot grow to take the survivors (OOM): the collection aborts with the
// uncopied objects still live in the nursery, so it can be retried.
func (a *Allocator) Collect() bool {
	a.collections++
	a.env.Instr(costGCFixed, sim.ClassAlloc)
	for p, sz := range a.liveNursery {
		a.env.Instr(costPerCopy, sim.ClassAlloc)
		if a.oldNext+mem.Addr(sz) > a.oldChunks[len(a.oldChunks)-1].End() {
			if !a.addOldChunk() {
				return false
			}
		}
		a.env.Copy(a.oldNext, p, sz, sim.ClassAlloc)
		a.oldNext += mem.Addr(sz)
		a.oldUsed += sz
		a.tenured++
		delete(a.liveNursery, p)
	}
	a.next = a.nursery.Base
	if fp := a.footprint(); fp > a.peak {
		a.peak = fp
	}
	return true
}

func (a *Allocator) allocOld(rounded uint64) heap.Ptr {
	a.env.Instr(costAlloc*2, sim.ClassAlloc)
	if a.oldNext+mem.Addr(rounded) > a.oldChunks[len(a.oldChunks)-1].End() {
		if !a.addOldChunk() {
			return 0 // OOM
		}
	}
	p := a.oldNext
	a.oldNext += mem.Addr(rounded)
	a.oldUsed += rounded
	return p
}

func (a *Allocator) footprint() uint64 {
	return a.nursery.Size + a.oldUsed
}

// PeakFootprint implements heap.Allocator.
func (a *Allocator) PeakFootprint() uint64 {
	if fp := a.footprint(); fp > a.peak {
		a.peak = fp
	}
	return a.peak
}

// ResetPeak implements heap.Allocator.
func (a *Allocator) ResetPeak() { a.peak = a.footprint() }

// Collections reports minor-GC count; Tenured the objects copied out.
func (a *Allocator) Collections() uint64 { return a.collections }

// Tenured reports how many objects survived into the old generation.
func (a *Allocator) Tenured() uint64 { return a.tenured }
