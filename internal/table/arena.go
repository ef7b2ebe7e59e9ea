package table

import "sync"

// blockRows is the unit of the chunked scan kernels: group-by and
// group-stats pull codes out of the packed columns one block at a time,
// so the per-row cost is array arithmetic instead of an interface call,
// and all scratch stays in a few cache-resident slices.
const blockRows = 4096

// Dense-structure caps for the chunked kernels. A key span within
// maxDenseKeySpan uses a flat key→group table (16 MiB of int32 at the
// cap) instead of a hash map; a summed confidential cardinality within
// maxDenseHistWidth accumulates histograms in a flat per-group slab.
const (
	maxDenseKeySpan   = 1 << 22
	maxDenseHistWidth = 1 << 16
)

// statsArena is the reusable scratch of one chunked scan: block
// buffers, the key→group index (dense table or map), the per-group
// histogram slab, and the discovered group keys. Scans borrow an arena
// from a package-level pool and return it when done, so a lattice
// search that runs many base scans — and the shards of one parallel
// scan — allocate this memory once, not per node.
//
// Every structure is left zeroed/cleared on release, which is what
// makes acquisition O(1): keyTable and hist are known-zero, idx is
// known-empty.
type statsArena struct {
	keys    []uint64 // packed key per row of the current block
	gids    []int32  // group id per row of the current block
	scratch []int32  // per-column code extraction buffer
	ids     []int32  // per-row confidential ids of the current block

	keyTable []int32 // packed key -> group id + 1 (0 = absent)
	idx      map[uint64]int32
	gkeys    []uint64 // packed key of each discovered group, in order
	hist     []int32  // group-major histogram slab, width histStride
	sizes    []int32  // per-group row count (chunked stats kernel)
	reps     []int32  // per-group representative row (ditto)
}

var statsArenaPool = sync.Pool{New: func() any {
	return &statsArena{
		keys:    make([]uint64, blockRows),
		gids:    make([]int32, blockRows),
		scratch: make([]int32, 0, blockRows),
		ids:     make([]int32, 0, blockRows),
		idx:     make(map[uint64]int32),
	}
}}

func getStatsArena() *statsArena { return statsArenaPool.Get().(*statsArena) }

// release re-zeroes what the scan dirtied and returns the arena to the
// pool. keyTable is cleared through gkeys (O(groups), not O(span)).
func (a *statsArena) release() {
	for _, k := range a.gkeys {
		if int(k) < len(a.keyTable) {
			a.keyTable[k] = 0
		}
	}
	a.gkeys = a.gkeys[:0]
	for i := range a.hist {
		a.hist[i] = 0
	}
	a.hist = a.hist[:0]
	a.sizes = a.sizes[:0]
	a.reps = a.reps[:0]
	clear(a.idx)
	statsArenaPool.Put(a)
}

// ensureKeyTable makes the dense key table at least span long (zeroed).
func (a *statsArena) ensureKeyTable(span int) {
	if len(a.keyTable) < span {
		a.keyTable = make([]int32, span)
	}
}

// growHist extends the histogram slab to n entries. Newly exposed
// entries are zero: fresh allocations are zeroed by the runtime, and
// release() re-zeroes everything it exposed before pooling.
func (a *statsArena) growHist(n int) {
	if n <= len(a.hist) {
		return
	}
	if n <= cap(a.hist) {
		a.hist = a.hist[:n]
		return
	}
	grown := make([]int32, n, 2*n)
	copy(grown, a.hist)
	a.hist = grown
}
