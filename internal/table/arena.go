package table

import (
	"bytes"
	"hash/maphash"
	"sync"
)

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
// hashed byte slab for keys that do not pack into 64 bits), the
// discovered group keys, and the counting sort and histogram
// accumulator that the statistics scan and the merge share. Scans and
// merges borrow an arena from a package-level pool and return it when
// done, so a lattice search that runs many scans and roll-ups — and
// the shards of one parallel scan — allocate this memory once, not per
// node.
//
// Every structure is left zeroed/cleared on release, which is what
// makes acquisition O(1): keyTable and acc are known-zero, idx and the
// byte-key slab are known-empty.
type statsArena struct {
	keys    []uint64 // packed key per row of the current block
	gids    []int32  // group id per row of the current block
	scratch []int32  // per-column code extraction buffer
	ids     []int32  // per-row confidential ids of the current block

	keyTable []int32 // packed key -> group id + 1 (0 = absent)
	// idx maps a packed key to its group, or the hash of a byte key to
	// the newest group with that hash (byteGroup).
	idx   map[uint64]int32
	gkeys []uint64 // packed key of each discovered group, in order
	sizes []int32  // per-group row count (per-target source count in a roll-up)
	reps  []int32  // per-group representative (first) row (first source in a roll-up)

	// The byte keys of keys that do not pack: every group's key bytes in
	// one slab, keyEnds[g] the end of group g's, and next[g] the previous
	// group with g's hash (-1 for none).
	keyBytes []byte
	keyEnds  []int
	next     []int32

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
	a.keyBytes, a.keyEnds, a.next = a.keyBytes[:0], a.keyEnds[:0], a.next[:0]
	clear(a.idx)
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

// keySeed seeds keyHash for the life of the process.
var keySeed = maphash.MakeSeed()

// keyHash is the hash byteGroup indexes byte keys by.
func keyHash(key []byte) uint64 { return maphash.Bytes(keySeed, key) }

// byteGroup is group for keys that do not pack into 64 bits, scanned as
// varint byte strings. The caller appends the key's bytes to keyBytes,
// past the last group's end; hash hashes them. idx holds the newest
// group with that hash and next chains it to the older ones, so a
// collision costs a byte comparison, never a wrong group. A key seen
// before is cut off the slab again; a new one stays, as its group's
// bytes. Ids follow first appearance, and the lookup allocates only
// when the slab or the index grows, never per group.
func (a *statsArena) byteGroup(hash func([]byte) uint64, first int32) int32 {
	lo := a.keyStart(len(a.keyEnds))
	key := a.keyBytes[lo:]
	h := hash(key)
	head, ok := a.idx[h]
	if !ok {
		head = -1
	}
	for g := head; g >= 0; g = a.next[g] {
		if bytes.Equal(a.keyBytes[a.keyStart(int(g)):a.keyEnds[g]], key) {
			a.keyBytes = a.keyBytes[:lo]
			a.sizes[g]++
			return g
		}
	}
	g := a.newGroup(first)
	a.keyEnds = append(a.keyEnds, len(a.keyBytes))
	a.next = append(a.next, head)
	a.idx[h] = g
	a.sizes[g]++
	return g
}

// keyStart is where group g's key bytes start: the end of group g-1's.
func (a *statsArena) keyStart(g int) int {
	if g == 0 {
		return 0
	}
	return a.keyEnds[g-1]
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
// row by row through varint byte-string keys (byteGroup) into the same
// fields (sizes, reps) and visited a block at a time the same way, with
// ids in first-appearance order. A second scan over the same columns
// resolves every row to the id the first gave it.
func (a *statsArena) scanKeys(cols []Column, lo, hi int, visit func(blo int, gids []int32)) {
	if plan, ok := packedPlan(cols); ok {
		a.scanGroups(plan, cols, lo, hi, visit)
		return
	}
	for blo := lo; blo < hi; blo += blockRows {
		gids := a.gids[:min(blockRows, hi-blo)]
		for j := range gids {
			a.keyBytes = varintKey(a.keyBytes, cols, blo+j)
			gids[j] = a.byteGroup(keyHash, int32(blo+j))
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
