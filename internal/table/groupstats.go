package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file implements the group-statistics roll-up layer. Every
// p-sensitive k-anonymity verdict depends only on per-QI-group
// aggregates — the group's size and, per confidential attribute, the
// histogram of confidential codes — never on the rows themselves.
// GroupStats captures exactly those aggregates, and because full-domain
// generalization only ever merges QI-groups as the lattice is climbed,
// the aggregates at a more generalized node are a pure merge (Rollup)
// of the aggregates at any less generalized node: O(#groups) instead of
// O(#rows) per lattice node.

// CodeCount is one histogram entry: a confidential-attribute code and
// its number of occurrences inside a group. Count is always >= 1, so
// the distinct-value count of a group equals the histogram length.
type CodeCount struct {
	Code  int
	Count int
}

// CodeHist is the per-(group, confidential attribute) frequency
// histogram, sorted by ascending code, so its first and last entries
// bound its codes.
type CodeHist []CodeCount

// Distinct returns the number of distinct codes in the histogram.
func (h CodeHist) Distinct() int { return len(h) }

// Total returns the summed counts (the group size, when the histogram
// covers a whole group).
func (h CodeHist) Total() int {
	n := 0
	for _, e := range h {
		n += e.Count
	}
	return n
}

// MaxCount returns the largest single-code count (0 for an empty
// histogram) — the numerator of the (p, alpha)-sensitivity test.
func (h CodeHist) MaxCount() int {
	max := 0
	for _, e := range h {
		if e.Count > max {
			max = e.Count
		}
	}
	return max
}

// GroupStat summarizes one QI-group without retaining its rows: the
// group's QI codes (one per key column, in the code space of the node
// the stats were computed at), its size, and one confidential-code
// histogram per confidential attribute. Rep is the index of the
// group's representative row — the first row that joined it — in the
// table the statistics were originally scanned from; merges (Rollup and
// the shard merge) keep the earliest constituent's Rep, which by
// first-appearance ordering is still the merged group's first row.
// It lets diagnostics recover a group's key values from one row lookup
// without re-grouping the table.
type GroupStat struct {
	Codes []int
	Size  int
	Rep   int
	Hists []CodeHist
}

// GroupStats is the aggregate form of a GroupBy: everything the
// p-sensitive k-anonymity family of checks needs, in O(#groups) memory.
// Groups appear in order of first appearance of their rows, matching
// GroupBy's ordering contract.
type GroupStats struct {
	// NumRows is the number of rows the groups cover.
	NumRows int
	// NumQI and NumConf record the key and confidential attribute
	// counts, so verdicts remain well-defined on empty tables.
	NumQI   int
	NumConf int
	// Groups holds one entry per QI-group, in first-appearance order.
	Groups []GroupStat
}

// NumGroups returns the number of QI-groups.
func (s *GroupStats) NumGroups() int { return len(s.Groups) }

// TuplesBelow counts the tuples in groups smaller than k — the number
// of tuples suppression would remove to reach k-anonymity.
func (s *GroupStats) TuplesBelow(k int) int {
	n := 0
	for i := range s.Groups {
		if s.Groups[i].Size < k {
			n += s.Groups[i].Size
		}
	}
	return n
}

// MinGroupSize returns the smallest group size (0 when empty).
func (s *GroupStats) MinGroupSize() int {
	if len(s.Groups) == 0 {
		return 0
	}
	min := s.Groups[0].Size
	for i := range s.Groups[1:] {
		if s.Groups[i+1].Size < min {
			min = s.Groups[i+1].Size
		}
	}
	return min
}

// SuppressBelow returns the statistics of the table after tuple
// suppression at threshold k: every group smaller than k is removed
// whole. Group values are shared with the receiver, which stays valid.
// This is exactly what table-level Suppress does to the groups —
// suppression removes whole groups, never parts of them — so verdicts
// computed on the result match verdicts on the suppressed table.
func (s *GroupStats) SuppressBelow(k int) *GroupStats {
	out := &GroupStats{NumQI: s.NumQI, NumConf: s.NumConf}
	out.Groups = make([]GroupStat, 0, len(s.Groups))
	for i := range s.Groups {
		if s.Groups[i].Size >= k {
			out.Groups = append(out.Groups, s.Groups[i])
			out.NumRows += s.Groups[i].Size
		}
	}
	return out
}

// Totals returns each confidential attribute's histogram over all the
// groups' rows, sorted by code: the value counts of the whole table.
// The groups are summed as the sources of one roll-up target, in the
// merge's accumulator (mergeGroupHists), so a total costs the groups'
// histogram entries and no map unless an attribute's codes span more
// than a dense accumulator holds. The histograms are the caller's own;
// none is shared with the receiver.
func (s *GroupStats) Totals() []CodeHist {
	if len(s.Groups) < 2 {
		// mergeGroupHists would share a lone source's histograms.
		out := make([]CodeHist, s.NumConf)
		for _, g := range s.Groups {
			for a, h := range g.Hists {
				out[a] = slices.Clone(h)
			}
		}
		return out
	}
	ar := getStatsArena()
	target := resize(ar.target, len(s.Groups))
	clear(target)
	ar.target = target
	ar.newGroup(0)
	ar.sizes[0] = int32(len(s.Groups))
	all := &GroupStats{NumConf: s.NumConf, Groups: make([]GroupStat, 1)}
	mergeGroupHists(s.Groups, all, ar)
	ar.release()
	return all.Groups[0].Hists
}

// Rollup maps the receiver's groups onto a more generalized lattice
// node's groups: maps[i] translates QI column i's codes from the
// receiver's level to the target level (nil meaning the level did not
// change), and groups whose translated keys collide are merged —
// sizes added, histograms summed. The result is byte-identical to
// computing GroupStats directly on the generalized table, including
// group order: ancestor groups inherit the first-appearance order of
// their earliest constituent, which is the first-appearance order of
// their rows. A map that sends every code of a column to one code
// takes the column out of the grouping: the groups, their order, sizes
// and histograms are those of grouping by the other columns alone.
func (s *GroupStats) Rollup(maps []*CodeMap) (*GroupStats, error) {
	if len(maps) != s.NumQI {
		return nil, fmt.Errorf("table: rollup got %d code maps for %d key columns", len(maps), s.NumQI)
	}
	return regroup(s.Groups, s.NumRows, s.NumQI, s.NumConf, func(g *GroupStat, dst []int) error {
		for i, c := range g.Codes {
			mc, ok := maps[i].Map(c)
			if !ok {
				return fmt.Errorf("table: rollup: key column %d code %d has no translation", i, c)
			}
			dst[i] = mc
		}
		return nil
	})
}

// regroup is the one group-merge loop behind Rollup and the shard merge
// of GroupStats. codes writes each source group's key into dst (numQI
// wide); sources whose keys collide merge into one target, which takes
// the first source's key and Rep and the sum of the sizes, in
// first-appearance order.
//
// Keys resolve as a row scan's do. The translated keys go into arena
// scratch, are packed with the plan their observed code ranges admit
// (rangePlan, the rule packedPlan applies to columns) and are looked up
// through the arena's key table or map (statsArena.group, the lookup
// scanGroups runs); only ranges whose product does not fit in 64 bits
// fall back to varint byte-string keys, as in GroupBy. Histograms are
// left to mergeGroupHists. All scratch comes from the one arena, and
// the output is exact slabs cut into groups, so a roll-up costs its
// source groups and histogram entries with a constant number of
// allocations.
func regroup(src []GroupStat, numRows, numQI, numConf int, codes func(g *GroupStat, dst []int) error) (*GroupStats, error) {
	out := &GroupStats{NumRows: numRows, NumQI: numQI, NumConf: numConf}
	if len(src) == 0 {
		return out, nil
	}
	// Released by hand, not deferred: a panic mid-merge drops the arena
	// instead of pooling an accumulator it left dirty.
	ar := getStatsArena()
	keys := resize(ar.srcKeys, len(src)*numQI)
	ar.srcKeys = keys
	for gi := range src {
		if err := codes(&src[gi], keys[gi*numQI:(gi+1)*numQI]); err != nil {
			ar.release()
			return nil, err
		}
	}
	target := resize(ar.target, len(src))
	ar.target = target
	plan, packed := rangePlan(numQI, func(i int) (int, int, bool) {
		lo, hi := keys[i], keys[i]
		for j := i + numQI; j < len(keys); j += numQI {
			lo, hi = min(lo, keys[j]), max(hi, keys[j])
		}
		return lo, hi, true
	})
	if packed {
		dense := ar.keyIndex(plan.span)
		for gi := range src {
			target[gi] = ar.group(plan.pack(keys[gi*numQI:(gi+1)*numQI]), dense, int32(gi))
		}
	} else {
		for gi := range src {
			for _, c := range keys[gi*numQI : (gi+1)*numQI] {
				ar.keyBytes = binary.AppendVarint(ar.keyBytes, int64(c))
			}
			target[gi] = ar.byteGroup(keyHash, int32(gi))
		}
	}
	out.Groups = make([]GroupStat, len(ar.reps))
	keySlab := make([]int, len(ar.reps)*numQI)
	for j, first := range ar.reps {
		k := keySlab[j*numQI : (j+1)*numQI : (j+1)*numQI]
		copy(k, keys[int(first)*numQI:])
		out.Groups[j].Codes = k
		out.Groups[j].Rep = src[first].Rep
	}
	for gi, j := range target {
		out.Groups[j].Size += src[gi].Size
	}
	mergeGroupHists(src, out, ar)
	ar.release()
	return out, nil
}

// mergeGroupHists fills in each target's histograms from regroup's
// assignment in the arena: target per source, and per target its first
// source (reps) and source count (sizes).
//
// A single-source target shares its source's histograms — both sides
// stay immutable — so a roll-up pays nothing for groups that merely
// translate their codes. The sources of the other targets are bucketed
// by target with a counting sort. Per attribute and target, their
// counts add into an accumulator indexed by code - lo over the
// attribute's code span in this roll-up, and only the codes the target
// touched are sorted, emitted and reset (emitRun): tens per target,
// where sorting the sources' entries would order thousands. An
// attribute whose span exceeds intDictMaxSpan (an Int attribute spread
// over more than a million values) takes its slots from the arena's
// map instead, in the same loop. The entries land in one exact slab
// that every merged histogram is cut from (cutHists).
func mergeGroupHists(src []GroupStat, out *GroupStats, ar *statsArena) {
	nt, numConf := len(out.Groups), out.NumConf
	starts := resize(ar.starts, nt+1)
	ar.starts = starts
	multi, pos := 0, int32(0)
	for j, n := range ar.sizes {
		starts[j] = pos
		if n > 1 {
			pos += n
			multi++
		} else {
			out.Groups[j].Hists = src[ar.reps[j]].Hists
		}
	}
	starts[nt] = pos
	if multi == 0 {
		return
	}
	// Target j's sources are bucket[starts[j]:starts[j+1]], in source
	// order; the range is empty for a single-source target. The source
	// counts are no longer needed, so sizes holds the fill cursors. The
	// same pass takes each attribute's code range over those sources.
	bucket := resize(ar.bucket, int(pos))
	ar.bucket = bucket
	spans := resize(ar.spans, numConf)
	ar.spans = spans
	for a := range spans {
		spans[a] = accSpan{lo: math.MaxInt, hi: math.MinInt}
	}
	next := ar.sizes
	copy(next, starts)
	for gi, j := range ar.target {
		if starts[j+1] == starts[j] {
			continue
		}
		bucket[next[j]] = int32(gi)
		next[j]++
		for a, h := range src[gi].Hists {
			if len(h) > 0 {
				sp := &spans[a]
				sp.lo, sp.hi = min(sp.lo, h[0].Code), max(sp.hi, h[len(h)-1].Code)
			}
		}
	}

	// Attributes are summed one at a time, so the accumulator is as wide
	// as the widest dense range; a wider range marks its attribute wide.
	// An attribute with no entries needs neither.
	width := 0
	for a := range spans {
		sp := &spans[a]
		if sp.hi < sp.lo {
			continue
		}
		if d := uint64(sp.hi) - uint64(sp.lo); d < intDictMaxSpan {
			width = max(width, int(d)+1)
		} else {
			sp.wide = true
			clear(ar.idx)
		}
	}

	// A wide attribute's slots follow the dense ones, handed out by the
	// map as the target meets each code and given back after it.
	acc := resize(ar.acc, width)
	var sp accSpan
	slot := func(code int) int {
		if !sp.wide {
			return code - sp.lo
		}
		s, ok := ar.idx[uint64(code)]
		if !ok {
			s = int32(len(acc))
			ar.idx[uint64(code)] = s
			acc = append(acc, 0)
		}
		return int(s)
	}
	ar.ents, ar.ends = ar.ents[:0], ar.ends[:0]
	for a := range spans {
		sp = spans[a]
		for j := 0; j < nt; j++ {
			members := bucket[starts[j]:starts[j+1]]
			if len(members) == 0 {
				continue
			}
			touched := ar.touched[:0]
			for _, gi := range members {
				for _, e := range src[gi].Hists[a] {
					s := slot(e.Code)
					if acc[s] == 0 {
						touched = append(touched, e.Code)
					}
					acc[s] += int32(e.Count)
				}
			}
			ar.touched = touched
			ar.emitRun(acc, slot)
			if sp.wide {
				for _, code := range touched {
					delete(ar.idx, uint64(code))
				}
				acc = acc[:width]
			}
		}
	}
	ar.acc = acc

	hdrs := ar.cutHists(multi, numConf)
	m := 0
	for j := 0; j < nt; j++ {
		if starts[j+1] > starts[j] {
			// A fresh non-nil vector even with no confidential columns,
			// as a direct scan emits.
			out.Groups[j].Hists = hdrs[m*numConf : (m+1)*numConf : (m+1)*numConf]
			m++
		}
	}
}

// emitRun closes one (attribute, group) run of a histogram sum, in the
// statistics scan and the roll-up merge alike. It sorts the codes the
// group touched, appends each to ents with the count in its
// accumulator slot, zeroes the slot, and records where the run ends. A
// nil slot means the codes index acc directly.
func (a *statsArena) emitRun(acc []int32, slot func(code int) int) {
	slices.Sort(a.touched)
	for _, code := range a.touched {
		s := code
		if slot != nil {
			s = slot(code)
		}
		a.ents = append(a.ents, CodeCount{Code: code, Count: int(acc[s])})
		acc[s] = 0
	}
	a.ends = append(a.ends, int32(len(a.ents)))
}

// cutHists copies the emitted entries into one exact slab and cuts it
// into histograms. The runs were emitted attribute by attribute, each
// attribute over the same groups in order; group g's histograms are
// hdrs[g*numConf : (g+1)*numConf].
func (a *statsArena) cutHists(groups, numConf int) []CodeHist {
	hdrs := make([]CodeHist, groups*numConf)
	slab := make([]CodeCount, len(a.ents))
	copy(slab, a.ents)
	begin := int32(0)
	for i, end := range a.ends {
		hdrs[i%groups*numConf+i/groups] = slab[begin:end:end]
		begin = end
	}
	return hdrs
}

// accSpan is one confidential attribute's code range [lo, hi] over the
// sources a roll-up merges, and where its counts accumulate: at
// code - lo in the accumulator, or (wide) in slots from the arena's map.
type accSpan struct {
	lo, hi int
	wide   bool
}

// GroupStats computes the roll-up aggregates of the table in one
// sharded, parallel pass: rows are split into `workers` contiguous
// shards, each shard groups its rows independently (statShard), and
// the shard results merge in row order — so the group order is
// identical to the serial scan at every worker count. confidential may
// be empty when only group sizes are needed (plain k-anonymity).
func (t *Table) GroupStats(qis, confidential []string, workers int) (*GroupStats, error) {
	if len(qis) == 0 {
		return nil, fmt.Errorf("table: group stats with no key columns")
	}
	cols, err := t.columns(qis)
	if err != nil {
		return nil, err
	}
	confCols, err := t.columns(confidential)
	if err != nil {
		return nil, err
	}
	// Planned once, before any shard starts, so an Int column builds
	// its dictionary in one goroutine.
	confs := make([]confPlan, len(confCols))
	for i, c := range confCols {
		confs[i] = confPlanFor(c)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > t.nrows {
		workers = t.nrows
	}
	if workers <= 1 {
		return statShard(cols, confs, 0, t.nrows), nil
	}
	shards := make([]*GroupStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * t.nrows / workers
		hi := (w + 1) * t.nrows / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			shards[w] = statShard(cols, confs, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return mergeStatShards(shards, len(qis), len(confidential))
}

// confPlan is how the statistics scan reads one confidential column:
// each row's dense id in [0, width), a block at a time through read.
// An id is the row's code, except in an Int column, whose ids are its
// values' ranks and vals[id] the code. Ids ascend with codes, so
// histograms summed by id come out sorted by code.
type confPlan struct {
	width int
	read  func(dst []int32, lo, hi int) []int32
	vals  []int64
}

// confPlanFor builds the dense-id projection of a confidential column.
// Every column type has a dictionary.
func confPlanFor(c Column) confPlan {
	switch col := c.(type) {
	case *stringColumn:
		return confPlan{width: len(col.dict), read: col.codes32}
	case *floatColumn:
		return confPlan{
			width: len(col.dict),
			read: func(dst []int32, lo, hi int) []int32 {
				return append(dst, col.codes[lo:hi]...)
			},
		}
	}
	col := c.(*intColumn)
	d := col.intDict()
	return confPlan{
		width: len(d.vals),
		read: func(dst []int32, lo, hi int) []int32 {
			for _, v := range col.vals[lo:hi] {
				dst = append(dst, d.id(v))
			}
			return dst
		},
		vals: d.vals,
	}
}

// statShard aggregates rows [lo, hi) into per-group statistics, groups
// in order of first appearance within the shard. statsArena.scanKeys
// gives every row its group id, on either key path, and every group its
// size and first row, whose codes are the group's; sumHists sums the
// histograms. Scratch is O(rows + Σ widths), all of it the arena's, and
// the output is exact slabs cut into groups, so a scan makes a constant
// number of allocations at any size.
func statShard(cols []Column, confs []confPlan, lo, hi int) *GroupStats {
	numQI, numConf := len(cols), len(confs)
	s := &GroupStats{NumRows: hi - lo, NumQI: numQI, NumConf: numConf}
	// Released by hand, not deferred: a panic mid-sum drops the arena
	// instead of pooling an accumulator it left dirty.
	ar := getStatsArena()
	// Each row's group id, kept only when there are histograms to sum.
	var rowGroup []int32
	if numConf > 0 {
		rowGroup = resize(ar.target, hi-lo)
		ar.target = rowGroup
	}
	ar.scanKeys(cols, lo, hi, func(blo int, gids []int32) {
		if rowGroup != nil {
			copy(rowGroup[blo-lo:], gids)
		}
	})
	ng := len(ar.reps)
	if ng == 0 {
		// Left nil when the shard is empty, as a row-at-a-time scan does.
		ar.release()
		return s
	}
	s.Groups = make([]GroupStat, ng)
	keySlab := make([]int, ng*numQI)
	for g, r := range ar.reps {
		k := keySlab[g*numQI : (g+1)*numQI : (g+1)*numQI]
		for i, c := range cols {
			k[i] = c.Code(int(r))
		}
		s.Groups[g] = GroupStat{Codes: k, Size: int(ar.sizes[g]), Rep: int(r)}
	}
	ar.ents, ar.ends = ar.ents[:0], ar.ends[:0]
	if numConf > 0 {
		ar.sumHists(confs, rowGroup, lo)
	}
	hdrs := ar.cutHists(ng, numConf)
	for g := range s.Groups {
		// A fresh non-nil vector even with no confidential columns.
		s.Groups[g].Hists = hdrs[g*numConf : (g+1)*numConf : (g+1)*numConf]
	}
	ar.release()
	return s
}

// sumHists emits every group's histograms, attribute by attribute, for
// the rows from lo whose group ids rowGroup holds. It is a counting sort
// of the rows by group: the group sizes cut one row-long buffer, bucket,
// into a run per group. For each confidential attribute, each row's id
// is scattered into its group's run, and each run is summed into an
// accumulator as wide as the attribute's dictionary; emitRun sorts,
// emits and resets only the ids the group touched, as the roll-up merge
// does.
func (a *statsArena) sumHists(confs []confPlan, rowGroup []int32, lo int) {
	ng := len(a.sizes)
	starts := resize(a.starts, ng+1)
	a.starts = starts
	pos := int32(0)
	for g, n := range a.sizes {
		starts[g] = pos
		pos += n
	}
	starts[ng] = pos
	bucket := resize(a.bucket, len(rowGroup))
	a.bucket = bucket
	// The sizes are in the output now, so sizes holds the fill cursors.
	next := a.sizes
	for _, cp := range confs {
		copy(next, starts)
		for blo := 0; blo < len(rowGroup); blo += blockRows {
			a.ids = cp.read(a.ids[:0], lo+blo, lo+min(blo+blockRows, len(rowGroup)))
			for j, id := range a.ids {
				g := rowGroup[blo+j]
				bucket[next[g]] = id
				next[g]++
			}
		}
		acc := resize(a.acc, cp.width)
		a.acc = acc
		first := len(a.ents)
		for g := 0; g < ng; g++ {
			touched := a.touched[:0]
			for _, id := range bucket[starts[g]:starts[g+1]] {
				if acc[id] == 0 {
					touched = append(touched, int(id))
				}
				acc[id]++
			}
			a.touched = touched
			a.emitRun(acc, nil)
		}
		if cp.vals != nil {
			for i := first; i < len(a.ents); i++ {
				a.ents[i].Code = int(cp.vals[a.ents[i].Code])
			}
		}
	}
}

// mergeStatShards concatenates shard-local stats in shard order,
// merging groups that span shard boundaries. Because shard w covers
// strictly earlier rows than shard w+1, first-appearance order over
// the merged result equals first-appearance order of the serial scan.
func mergeStatShards(shards []*GroupStats, numQI, numConf int) (*GroupStats, error) {
	n, rows := 0, 0
	for _, sh := range shards {
		n += len(sh.Groups)
		rows += sh.NumRows
	}
	all := make([]GroupStat, 0, n)
	for _, sh := range shards {
		all = append(all, sh.Groups...)
	}
	return regroup(all, rows, numQI, numConf, func(g *GroupStat, dst []int) error {
		copy(dst, g.Codes)
		return nil
	})
}
