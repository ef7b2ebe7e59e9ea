package table

import "sync"

// blockRows is the unit of the chunked scan kernels: group-by and
// group-stats pull codes out of the packed columns one block at a time,
// so the per-row cost is array arithmetic instead of an interface call,
// and all scratch stays in a few cache-resident slices.
const blockRows = 4096

// maxDenseKeySpan caps the flat key→group table of the chunked scans
// (16 MiB of int32 at the cap); a wider key span resolves through a
// hash map instead.
const maxDenseKeySpan = 1 << 22

// statsArena is the reusable scratch of one chunked scan or one group
// merge: block buffers, the key→group index (dense table or map, or a
// string-keyed map for keys that do not pack into 64 bits), the
// discovered group keys, and the counting sort and histogram
// accumulator that the statistics scan and the merge share. Scans and
// merges borrow an arena from a package-level pool and return it when
// done, so a lattice search that runs many scans and roll-ups — and
// the shards of one parallel scan — allocate this memory once, not per
// node.
//
// Every structure is left zeroed/cleared on release, which is what
// makes acquisition O(1): keyTable and acc are known-zero, idx and
// strIdx are known-empty.
type statsArena struct {
	keys    []uint64 // packed key per row of the current block
	gids    []int32  // group id per row of the current block
	scratch []int32  // per-column code extraction buffer
	ids     []int32  // per-row confidential ids of the current block

	keyTable []int32 // packed key -> group id + 1 (0 = absent)
	idx      map[uint64]int32
	strIdx   map[string]int32
	gkeys    []uint64 // packed key of each discovered group, in order
	sizes    []int32  // per-group row count (per-target source count in a roll-up)
	reps     []int32  // per-group representative (first) row (first source in a roll-up)

	// Counting-sort and histogram scratch. A statistics scan sorts rows
	// by group, a roll-up sorts source groups by target: target holds
	// each row's group (each source's target), bucket the members in
	// group order (a row's confidential id in a scan, a source index in
	// a roll-up) and starts each group's first bucket slot. A roll-up
	// also keeps every source's translated key (srcKeys, numQI codes
	// each) and each attribute's accumulator span. Both sum histograms
	// into acc (all zero at rest), list the codes the current group
	// touched, and emit entries into ents with each (attribute, group)
	// run's end offset in ends.
	srcKeys []int
	target  []int32
	bucket  []int32
	starts  []int32
	spans   []accSpan
	acc     []int32
	touched []int
	ents    []CodeCount
	ends    []int32
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
		if k < uint64(len(a.keyTable)) {
			a.keyTable[k] = 0
		}
	}
	a.gkeys = a.gkeys[:0]
	a.sizes = a.sizes[:0]
	a.reps = a.reps[:0]
	clear(a.idx)
	clear(a.strIdx)
	statsArenaPool.Put(a)
}

// keyIndex readies the key->group index for packed keys in [0, span)
// and reports whether it is the flat key table (span within
// maxDenseKeySpan) rather than the map.
func (a *statsArena) keyIndex(span uint64) bool {
	if span > maxDenseKeySpan {
		return false
	}
	if uint64(len(a.keyTable)) < span {
		a.keyTable = make([]int32, span)
	}
	return true
}

// group is the one key-to-group lookup of the row scan (scanGroups) and
// the group merge (regroup). It resolves packed key k through the flat
// key table (dense) or the map; a key not seen before takes the next id
// in first-appearance order and records k in gkeys and first (a row, or
// a source group) in reps. Either way the group's sizes entry counts one
// more member.
func (a *statsArena) group(k uint64, dense bool, first int32) int32 {
	var g int32
	var seen bool
	if dense {
		g = a.keyTable[k] - 1
		seen = g >= 0
	} else {
		g, seen = a.idx[k]
	}
	if !seen {
		g = a.newGroup(first)
		if dense {
			a.keyTable[k] = g + 1
		} else {
			a.idx[k] = g
		}
		a.gkeys = append(a.gkeys, k)
	}
	a.sizes[g]++
	return g
}

// newGroup assigns the next group id to a key first seen at first.
func (a *statsArena) newGroup(first int32) int32 {
	a.sizes = append(a.sizes, 0)
	a.reps = append(a.reps, first)
	return int32(len(a.reps) - 1)
}

// scanGroups is the one loop that turns packed row keys into group ids.
// It walks rows [lo, hi) block by block and resolves each row's key with
// group, so ids follow first appearance and every group records its key
// (gkeys), first row (reps) and size (sizes). visit sees every block
// once it is resolved: blo is its first row and gids its rows' group ids.
func (a *statsArena) scanGroups(plan packPlan, cols []Column, lo, hi int, visit func(blo int, gids []int32)) {
	dense := a.keyIndex(plan.span)
	for blo := lo; blo < hi; blo += blockRows {
		n := min(blockRows, hi-blo)
		plan.blockKeys(cols, blo, blo+n, a.keys, a.scratch)
		gids := a.gids[:n]
		for j, k := range a.keys[:n] {
			gids[j] = a.group(k, dense, int32(blo+j))
		}
		visit(blo, gids)
	}
}

// scanKeys is scanGroups for any key columns over rows [lo, hi). Keys
// that pack into 64 bits go through scanGroups; the others are resolved
// row by row through varint byte-string keys into the same fields
// (sizes, reps) and visited a block at a time the same way, with ids in
// first-appearance order. A second scan over the same columns resolves
// every row to the id the first gave it.
func (a *statsArena) scanKeys(cols []Column, lo, hi int, visit func(blo int, gids []int32)) {
	if plan, ok := packedPlan(cols); ok {
		a.scanGroups(plan, cols, lo, hi, visit)
		return
	}
	if a.strIdx == nil {
		a.strIdx = make(map[string]int32)
	}
	key := make([]byte, 0, 16*len(cols))
	for blo := lo; blo < hi; blo += blockRows {
		gids := a.gids[:min(blockRows, hi-blo)]
		for j := range gids {
			key = varintKey(key[:0], cols, blo+j)
			g, seen := a.strIdx[string(key)]
			if !seen {
				g = a.newGroup(int32(blo + j))
				a.strIdx[string(key)] = g
			}
			a.sizes[g]++
			gids[j] = g
		}
		visit(blo, gids)
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Entries keep whatever the array held, so a slice that
// is all zero within its capacity (the accumulator) comes back zeroed.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
