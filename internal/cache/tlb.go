package cache

// TLB models a fully-associative data TLB with LRU replacement.
//
// The paper reports D-TLB misses per web transaction (Figure 8) and a >60 %
// D-TLB miss reduction from DDmalloc's large-page optimization. Entries are
// keyed by (page number, page shift) so 4 KiB and large pages coexist; a
// large page covers 512-1024x the address range of a small one, which is the
// entire mechanism behind the optimization.
//
// Recency is a 64-bit last-use stamp per entry (a 64-bit tick cannot wrap
// within any reachable simulation). Stamps make the hit path — the
// overwhelmingly common one on a temporally-local access stream — a single
// store, where an intrusive move-to-front list paid four pointer updates per
// hit; the miss path pays an argmin scan over the stamps instead, and misses
// are what the TLB exists to make rare. Stamps are strictly monotonic and
// distinct, so the argmin victim is exactly the entry a move-to-front list
// would have held at its tail: hit/miss outcomes and victim choices are
// bit-identical.
//
// Lookups go through a small open-addressing index (hash of key → slot), so
// a hit costs one or two probes regardless of TLB size. Key matches are
// unique, so lookup strategy cannot change hit/miss outcomes.
type TLB struct {
	entries int
	keys    []uint64
	stamps  []uint64
	tick    uint64
	mru     int
	fill    int // entries holding a key; == entries once warm

	// slots maps hash(key) → slot+1 by linear probing (0 = empty). It is
	// sized at 4x entries so probe chains stay short even when full.
	slots    []int32
	slotMask uint64

	Hits, Misses uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	tabSize := 4
	for tabSize < 4*entries {
		tabSize *= 2
	}
	t := &TLB{
		entries:  entries,
		keys:     make([]uint64, entries),
		stamps:   make([]uint64, entries),
		slots:    make([]int32, tabSize),
		slotMask: uint64(tabSize - 1),
	}
	return t
}

// Key builds the lookup key for an address with the given page shift.
func Key(addr uint64, pageShift uint8) uint64 {
	// Shift occupies the low 6 bits; page numbers fit comfortably above.
	return (addr>>pageShift)<<6 | uint64(pageShift)
}

func (t *TLB) slotIdx(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15 >> 32) & t.slotMask
}

// indexDel removes key from the slot index, compacting the probe chain
// behind it (backward-shift deletion).
func (t *TLB) indexDel(key uint64) {
	i := t.slotIdx(key)
	for {
		s := t.slots[i]
		if s == 0 {
			return
		}
		if t.keys[s-1] == key {
			break
		}
		i = (i + 1) & t.slotMask
	}
	t.slots[i] = 0
	for j := (i + 1) & t.slotMask; t.slots[j] != 0; j = (j + 1) & t.slotMask {
		h := t.slotIdx(t.keys[t.slots[j]-1])
		if (j-h)&t.slotMask >= (j-i)&t.slotMask {
			t.slots[i] = t.slots[j]
			t.slots[j] = 0
			i = j
		}
	}
}

// indexPut records key → slot in the slot index.
func (t *TLB) indexPut(key uint64, slot int) {
	i := t.slotIdx(key)
	for t.slots[i] != 0 {
		i = (i + 1) & t.slotMask
	}
	t.slots[i] = int32(slot + 1)
}

// Access looks up key, filling the TLB on a miss, and reports a hit.
func (t *TLB) Access(key uint64) bool {
	keys := t.keys
	if m := t.mru; keys[m] == key { // no key is ever 0, so slot 0 is safe
		// The MRU entry already carries the newest stamp; repeat hits
		// need no recency update at all.
		t.Hits++
		return true
	}
	for i := t.slotIdx(key); ; i = (i + 1) & t.slotMask {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if si := int(s - 1); keys[si] == key {
			t.Hits++
			t.tick++
			t.stamps[si] = t.tick
			t.mru = si
			return true
		}
	}
	t.Misses++
	slot := 0
	if t.fill == t.entries {
		// Evict the least-recently-used entry: the minimum stamp.
		// Stamps are distinct, so the argmin is unique.
		stamps := t.stamps
		min := stamps[0]
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < min {
				min, slot = stamps[i], i
			}
		}
		t.indexDel(keys[slot])
	} else {
		// Entries are never invalidated, so free slots are exactly the
		// indices not yet filled; taking them in index order matches the
		// first-free-slot choice of the original scan.
		slot = t.fill
		t.fill++
	}
	keys[slot] = key
	t.indexPut(key, slot)
	t.tick++
	t.stamps[slot] = t.tick
	t.mru = slot
	return false
}

// Reset empties the TLB and clears its counters.
func (t *TLB) Reset() {
	for i := range t.keys {
		t.keys[i] = 0
		t.stamps[i] = 0
	}
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.tick = 0
	t.mru = 0
	t.fill = 0
	t.Hits, t.Misses = 0, 0
}
