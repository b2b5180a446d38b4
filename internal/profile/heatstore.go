package profile

import (
	"math"
	"math/bits"

	"vulcan/internal/pagetable"
)

// This file implements the dense struct-of-arrays page stores that back
// every profiler's hot path. The previous implementation kept per-page
// state in Go maps (map[VPage]heatStat and siblings); map access cost
// and per-epoch randomized walks with re-insertion dominated the figure
// benchmarks' cycle and allocation profiles. The stores here are paged
// arrays indexed directly by virtual page number:
//
//   - pages are grouped into chunks of 4096 (chunkPages); each chunk
//     holds the per-page fields as separate parallel arrays, so epoch
//     sweeps (decay, evict-below compaction, snapshot collection) are
//     branch-light linear passes over contiguous memory;
//   - chunks hang off a two-level directory (512 chunk pointers per
//     block), so the full 2^36-page virtual space is addressable without
//     reserving memory for unused regions;
//   - steady-state operation allocates nothing: chunks are allocated
//     once when a page region is first touched and then reused forever.
//
// Liveness is encoded in the heat field itself: every record weight is
// positive and decay eviction zeroes all fields, so heat != 0 is exactly
// "this page is tracked". Restore validates that invariant on input.
const (
	chunkShift = 12
	chunkPages = 1 << chunkShift // pages per chunk
	chunkMask  = chunkPages - 1
	dirShift   = 9
	dirSize    = 1 << dirShift // chunks per directory block
	dirMask    = dirSize - 1
)

// chunkBase returns the first VPage covered by chunk (hi, ci).
func chunkBase(hi, ci int) pagetable.VPage {
	return pagetable.VPage(hi)<<(chunkShift+dirShift) | pagetable.VPage(ci)<<chunkShift
}

// heatChunk holds one 4096-page region's profiled state as parallel
// arrays (struct-of-arrays): the decay sweep streams through heat[]
// first and only touches reads[]/writes[] for live entries.
type heatChunk struct {
	heat   [chunkPages]float64
	reads  [chunkPages]float64
	writes [chunkPages]float64
	live   int
	// maxHeat upper-bounds every live cell's heat (exact after an epoch
	// sweep, conservative between sweeps). When one more decay would
	// push even the maximum below the eviction floor, the whole chunk is
	// wiped with a clear instead of a per-cell sweep — multiplication by
	// a positive decay is monotone, so every cell is guaranteed to evict.
	maxHeat float64
}

// heatStore is the shared heat bookkeeping used by every profiler.
type heatStore struct {
	l1    []*[dirSize]*heatChunk
	decay float64
	// trackedPages counts live entries across all chunks.
	trackedPages int
	// snapScratch backs snapshot(); the returned slice is valid only
	// until the next snapshot() call.
	snapScratch []PageHeat  //vulcan:nosnap scratch, rebuilt by endEpoch or snapshot()
	snapSort    []PageHeat  //vulcan:nosnap radix-sort spare buffer, swapped with snapScratch
	sortBufs    sortScratch //vulcan:nosnap radix-sort key buffers, dead between calls
	// snapValid marks snapScratch as holding every tracked page's current
	// stats (collected for free during endEpoch's decay sweep);
	// snapSorted additionally marks it hottest-first. Any mutation clears
	// both, forcing snapshot() back to a full sweep. snapWanted records
	// that snapshot() has been consumed at least once, so stores that are
	// only ever queried pointwise skip the collection work entirely.
	snapValid  bool //vulcan:nosnap cache flag over scratch state
	snapSorted bool //vulcan:nosnap cache flag over scratch state
	snapWanted bool //vulcan:nosnap set on first snapshot() call
}

func newHeatStore(decay float64) *heatStore {
	if decay <= 0 || decay >= 1 {
		panic("profile: decay must be in (0,1)")
	}
	return &heatStore{decay: decay}
}

// chunkAt returns the chunk covering vp, or nil when the region was
// never touched.
//
//vulcan:hotpath
func (h *heatStore) chunkAt(vp pagetable.VPage) *heatChunk {
	hi := uint64(vp) >> (chunkShift + dirShift)
	if hi >= uint64(len(h.l1)) {
		return nil
	}
	blk := h.l1[hi]
	if blk == nil {
		return nil
	}
	return blk[uint64(vp)>>chunkShift&dirMask]
}

// ensureChunk returns the chunk covering vp, allocating the directory
// path on first touch of the region.
func (h *heatStore) ensureChunk(vp pagetable.VPage) *heatChunk {
	hi := uint64(vp) >> (chunkShift + dirShift)
	if hi >= uint64(len(h.l1)) {
		grown := make([]*[dirSize]*heatChunk, hi+1) //vulcan:allowalloc directory growth, once per 2M-page region
		copy(grown, h.l1)
		h.l1 = grown
	}
	blk := h.l1[hi]
	if blk == nil {
		blk = new([dirSize]*heatChunk) //vulcan:allowalloc directory block, once per 2M-page region
		h.l1[hi] = blk
	}
	ci := uint64(vp) >> chunkShift & dirMask
	c := blk[ci]
	if c == nil {
		c = new(heatChunk) //vulcan:allowalloc chunk allocation, once per 4096-page region
		blk[ci] = c
	}
	return c
}

// record credits one observation. Weights are always positive, so a
// zero heat cell is exactly an untracked page.
//
//vulcan:hotpath
func (h *heatStore) record(vp pagetable.VPage, write bool, weight float64) {
	h.snapValid = false
	h.snapSorted = false
	c := h.ensureChunk(vp)
	i := int(vp) & chunkMask
	if c.heat[i] == 0 {
		c.live++
		h.trackedPages++
	}
	v := c.heat[i] + weight
	c.heat[i] = v
	if v > c.maxHeat {
		c.maxHeat = v
	}
	if write {
		c.writes[i] += weight
	} else {
		c.reads[i] += weight
	}
}

// endEpoch ages every tracked page and evicts entries whose heat decayed
// to noise — one linear sweep per live chunk instead of a map walk. When
// this store's snapshot is consumed (snapWanted), the sweep also collects
// the surviving entries into snapScratch, so the following snapshot()
// call skips its own full sweep and only has to sort.
//
//vulcan:hotpath
func (h *heatStore) endEpoch() {
	collect := h.snapWanted
	var out []PageHeat
	if collect {
		if cap(h.snapScratch) < h.trackedPages {
			h.snapScratch = make([]PageHeat, 0, 1<<bits.Len(uint(h.trackedPages-1))) //vulcan:allowalloc grow-once scratch, amortized across epochs
		}
		out = h.snapScratch[:0]
	}
	for hi, blk := range h.l1 {
		if blk == nil {
			continue
		}
		for ci, c := range blk {
			if c == nil || c.live == 0 {
				continue
			}
			if c.maxHeat*h.decay < evictBelow {
				// Every live cell is at or below maxHeat, so one more decay
				// evicts them all: wipe the chunk wholesale.
				h.trackedPages -= c.live
				c.live = 0
				c.maxHeat = 0
				clear(c.heat[:])
				clear(c.reads[:])
				clear(c.writes[:])
				continue
			}
			base := chunkBase(hi, ci)
			newMax := 0.0
			for i := range c.heat {
				v := c.heat[i]
				if v == 0 {
					continue
				}
				v *= h.decay
				if v < evictBelow {
					c.heat[i] = 0
					c.reads[i] = 0
					c.writes[i] = 0
					c.live--
					h.trackedPages--
				} else {
					c.heat[i] = v
					if v > newMax {
						newMax = v
					}
					r := c.reads[i] * h.decay
					w := c.writes[i] * h.decay
					c.reads[i] = r
					c.writes[i] = w
					if collect {
						total := r + w
						wf := 0.0
						if total > 0 {
							wf = w / total
						}
						out = append(out, PageHeat{VP: base | pagetable.VPage(i), Heat: v, WriteFrac: wf}) //vulcan:allowalloc appends into grow-once snapScratch, amortized across epochs
					}
				}
			}
			c.maxHeat = newMax
		}
	}
	if collect {
		h.snapScratch = out
		h.snapValid = true
		h.snapSorted = false
	} else {
		h.snapValid = false
		h.snapSorted = false
	}
}

//vulcan:hotpath
func (h *heatStore) heat(vp pagetable.VPage) float64 {
	c := h.chunkAt(vp)
	if c == nil {
		return 0
	}
	return c.heat[int(vp)&chunkMask]
}

//vulcan:hotpath
func (h *heatStore) writeFraction(vp pagetable.VPage) float64 {
	c := h.chunkAt(vp)
	if c == nil {
		return 0
	}
	i := int(vp) & chunkMask
	total := c.reads[i] + c.writes[i]
	if total == 0 {
		return 0
	}
	return c.writes[i] / total
}

// snapshot returns all tracked pages hottest-first (ties broken by
// ascending page number). The slice is scratch owned by the store: it
// is valid only until the store is next mutated and must not be
// retained or modified by the caller. When the preceding endEpoch
// already collected the entries (and nothing mutated the store since),
// only the sort runs here; repeated calls within one epoch return the
// cached sorted slice directly.
func (h *heatStore) snapshot() []PageHeat {
	h.snapWanted = true
	if !h.snapValid {
		if cap(h.snapScratch) < h.trackedPages {
			// Jump straight to a power-of-two above the live-page count: one
			// high-water allocation instead of O(log n) append regrowths.
			h.snapScratch = make([]PageHeat, 0, 1<<bits.Len(uint(h.trackedPages-1))) //vulcan:allowalloc grow-once scratch, amortized across epochs
		}
		out := h.snapScratch[:0]
		for hi, blk := range h.l1 {
			if blk == nil {
				continue
			}
			for ci, c := range blk {
				if c == nil || c.live == 0 {
					continue
				}
				base := chunkBase(hi, ci)
				for i := range c.heat {
					v := c.heat[i]
					if v == 0 {
						continue
					}
					total := c.reads[i] + c.writes[i]
					wf := 0.0
					if total > 0 {
						wf = c.writes[i] / total
					}
					out = append(out, PageHeat{VP: base | pagetable.VPage(i), Heat: v, WriteFrac: wf})
				}
			}
		}
		h.snapScratch = out
		h.snapValid = true
		h.snapSorted = false
	}
	if !h.snapSorted {
		sorted, spare := sortHeatDesc(h.snapScratch, h.snapSort, &h.sortBufs)
		h.snapScratch = sorted
		h.snapSort = spare
		h.snapSorted = true
	}
	return h.snapScratch
}

// pages returns all tracked pages without ordering them: the cached
// collection as-is when valid (ascending page order after an endEpoch
// collection, hottest-first if a snapshot() sort already ran), else a
// fresh ascending sweep. Consumers must therefore be order-independent.
func (h *heatStore) pages() []PageHeat {
	h.snapWanted = true
	if h.snapValid {
		return h.snapScratch
	}
	if cap(h.snapScratch) < h.trackedPages {
		h.snapScratch = make([]PageHeat, 0, 1<<bits.Len(uint(h.trackedPages-1))) //vulcan:allowalloc grow-once scratch, amortized across epochs
	}
	out := h.snapScratch[:0]
	for hi, blk := range h.l1 {
		if blk == nil {
			continue
		}
		for ci, c := range blk {
			if c == nil || c.live == 0 {
				continue
			}
			base := chunkBase(hi, ci)
			for i := range c.heat {
				v := c.heat[i]
				if v == 0 {
					continue
				}
				total := c.reads[i] + c.writes[i]
				wf := 0.0
				if total > 0 {
					wf = c.writes[i] / total
				}
				out = append(out, PageHeat{VP: base | pagetable.VPage(i), Heat: v, WriteFrac: wf})
			}
		}
	}
	h.snapScratch = out
	h.snapValid = true
	h.snapSorted = false
	return out
}

func (h *heatStore) tracked() int { return h.trackedPages }

// setRaw installs restored per-page stats verbatim. heat must be
// nonzero (the caller validates); the cell must currently be empty.
func (h *heatStore) setRaw(vp pagetable.VPage, heat, reads, writes float64) bool {
	h.snapValid = false
	h.snapSorted = false
	c := h.ensureChunk(vp)
	i := int(vp) & chunkMask
	if c.heat[i] != 0 {
		return false // duplicate entry
	}
	c.heat[i] = heat
	c.reads[i] = reads
	c.writes[i] = writes
	if heat > c.maxHeat {
		c.maxHeat = heat
	}
	c.live++
	h.trackedPages++
	return true
}

// pageBitmap is a paged bitmap over virtual page numbers (HintFault's
// poison window). Same two-level directory shape as heatStore.
type bitmapChunk [chunkPages / 64]uint64

type pageBitmap struct {
	l1    []*[dirSize]*bitmapChunk
	count int
}

// set marks vp; reports whether it was newly set.
func (b *pageBitmap) set(vp pagetable.VPage) bool {
	hi := uint64(vp) >> (chunkShift + dirShift)
	if hi >= uint64(len(b.l1)) {
		grown := make([]*[dirSize]*bitmapChunk, hi+1) //vulcan:allowalloc directory growth, once per 2M-page region
		copy(grown, b.l1)
		b.l1 = grown
	}
	blk := b.l1[hi]
	if blk == nil {
		blk = new([dirSize]*bitmapChunk) //vulcan:allowalloc directory block, once per 2M-page region
		b.l1[hi] = blk
	}
	ci := uint64(vp) >> chunkShift & dirMask
	c := blk[ci]
	if c == nil {
		c = new(bitmapChunk) //vulcan:allowalloc chunk allocation, once per 4096-page region
		blk[ci] = c
	}
	i := int(vp) & chunkMask
	mask := uint64(1) << (uint(i) & 63)
	if c[i>>6]&mask != 0 {
		return false
	}
	c[i>>6] |= mask
	b.count++
	return true
}

// clearBit unmarks vp; reports whether it was set.
//
//vulcan:hotpath
func (b *pageBitmap) clearBit(vp pagetable.VPage) bool {
	hi := uint64(vp) >> (chunkShift + dirShift)
	if hi >= uint64(len(b.l1)) {
		return false
	}
	blk := b.l1[hi]
	if blk == nil {
		return false
	}
	c := blk[uint64(vp)>>chunkShift&dirMask]
	if c == nil {
		return false
	}
	i := int(vp) & chunkMask
	mask := uint64(1) << (uint(i) & 63)
	if c[i>>6]&mask == 0 {
		return false
	}
	c[i>>6] &^= mask
	b.count--
	return true
}

// clearAll unmarks every page, keeping allocated chunks for reuse.
//
//vulcan:hotpath
func (b *pageBitmap) clearAll() {
	for _, blk := range b.l1 {
		if blk == nil {
			continue
		}
		for _, c := range blk {
			if c == nil {
				continue
			}
			clear(c[:])
		}
	}
	b.count = 0
}

// forEach calls fn for every set page in ascending order.
func (b *pageBitmap) forEach(fn func(vp pagetable.VPage)) {
	for hi, blk := range b.l1 {
		if blk == nil {
			continue
		}
		for ci, c := range blk {
			if c == nil {
				continue
			}
			base := chunkBase(hi, ci)
			for w, word := range c {
				for word != 0 {
					i := w<<6 | bits.TrailingZeros64(word)
					fn(base | pagetable.VPage(i))
					word &= word - 1
				}
			}
		}
	}
}

// heatKey maps a heat value to a uint64 whose ascending order is the
// heat's descending order (monotone float-bits transform, safe for the
// full float64 range including negatives).
//
//vulcan:hotpath
func heatKey(f float64) uint64 {
	k := math.Float64bits(f)
	if k>>63 == 1 {
		k = ^k
	} else {
		k ^= 1 << 63
	}
	return ^k
}

// sortHeatDesc sorts a hottest-first with a stable LSD radix sort, using
// spare as the ping-pong buffer. Stability is the tie-break contract:
// callers emit entries in ascending page order, so equal-heat pages stay
// ascending — the same total order the previous comparison sort produced,
// at O(n) per pass instead of O(n log n) comparisons. Returns the sorted
// slice and the now-free spare buffer (the two may have swapped roles).
//
// sortScratch bundles the radix sort's reusable buffers. Each owner (one
// heatStore, one policy ranking) carries its own instance: lab workers
// run whole simulations in parallel, so package-level scratch would race.
type sortScratch struct {
	keys, keySpare []uint64 //vulcan:nosnap transient sort scratch, dead between calls
}

//vulcan:hotpath
func sortHeatDesc(a, spare []PageHeat, sc *sortScratch) (sorted, unused []PageHeat) {
	n := len(a)
	if n < 2 {
		return a, spare
	}
	if cap(spare) < n {
		// Power-of-two growth: a slowly creeping page count must not
		// reallocate these buffers every epoch.
		spare = make([]PageHeat, 1<<bits.Len(uint(n-1))) //vulcan:allowalloc grow-once spare buffer, reused across epochs
	}
	if cap(sc.keys) < n {
		c := 1 << bits.Len(uint(n-1))
		sc.keys = make([]uint64, c)     //vulcan:allowalloc grow-once key buffer, reused across calls
		sc.keySpare = make([]uint64, c) //vulcan:allowalloc grow-once key buffer, reused across calls
	}
	b := spare[:n]
	// Materialize each element's radix key once; the passes then stream
	// the key array instead of recomputing the float transform per pass.
	// The OR/AND fold finds the bytes that actually vary — a byte is
	// uniform exactly when its OR and AND agree, and a uniform byte's
	// pass would be an identity copy, so only varying bytes get a pass.
	ka, kb := sc.keys[:n], sc.keySpare[:n]
	orK, andK := uint64(0), ^uint64(0)
	for i := range a {
		k := heatKey(a[i].Heat)
		ka[i] = k
		orK |= k
		andK &= k
	}
	varying := orK ^ andK
	var counts [256]int
	for shift := 0; shift < 64; shift += 8 {
		if (varying>>shift)&0xFF == 0 {
			continue
		}
		clear(counts[:])
		for _, k := range ka {
			counts[(k>>shift)&0xFF]++
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i, k := range ka {
			j := counts[(k>>shift)&0xFF]
			counts[(k>>shift)&0xFF] = j + 1
			b[j] = a[i]
			kb[j] = k
		}
		a, b = b, a
		ka, kb = kb, ka
	}
	return a, b
}
