package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Group is one equivalence class of a group-by: the key values and the
// indices of rows (into the grouped table) that share them.
type Group struct {
	Key  []Value
	Rows []int
}

// Size returns the number of rows in the group.
func (g Group) Size() int { return len(g.Rows) }

// KeyString renders the group key as a comma-separated string.
func (g Group) KeyString() string {
	var b strings.Builder
	for i, v := range g.Key {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Str())
	}
	return b.String()
}

// packPlan describes how to pack one row's multi-column codes into a
// single uint64 key: key = sum_i (code_i - off_i) * stride_i. A plan
// exists only when every key column reports a code range and the ranges'
// product fits in a uint64 (mixed-radix positional encoding, so distinct
// code tuples map to distinct keys).
type packPlan struct {
	offs    []int
	strides []uint64
	// span is the total key-space size (the product of the per-column
	// code spans); keys lie in [0, span).
	span uint64
}

// packedPlan builds the uint64 packing plan for the key columns, or
// reports ok=false when some column's codes are unbounded or the
// combined cardinality overflows.
func packedPlan(cols []Column) (packPlan, bool) {
	return rangePlan(len(cols), func(i int) (int, int, bool) {
		cr, ok := cols[i].(codeRanger)
		if !ok {
			return 0, 0, false
		}
		return cr.CodeRange()
	})
}

// rangePlan is the one packing rule, shared by the row scans (through
// packedPlan) and the group merge (regroup): it builds the plan for n
// key columns whose codes lie in the ranges codeRange reports, or
// reports ok=false when a range is unknown or the ranges' product does
// not fit in a uint64.
func rangePlan(n int, codeRange func(i int) (lo, hi int, ok bool)) (packPlan, bool) {
	offs := make([]int, n)
	strides := make([]uint64, n)
	stride := uint64(1)
	for i := range offs {
		lo, hi, ok := codeRange(i)
		if !ok || hi < lo {
			return packPlan{}, false
		}
		// Unsigned difference: hi-lo overflows int for wide int-column
		// ranges, and the full 2^64-wide domain would wrap span to 0 —
		// poisoning stride (and the dense key table) instead of falling
		// back to the byte-string keys.
		diff := uint64(hi) - uint64(lo)
		if diff == math.MaxUint64 {
			return packPlan{}, false
		}
		span := diff + 1
		if span > math.MaxUint64/stride {
			return packPlan{}, false
		}
		offs[i] = lo
		strides[i] = stride
		stride *= span
	}
	return packPlan{offs: offs, strides: strides, span: stride}, true
}

// pack packs one key's codes, one per column, per the plan.
func (p packPlan) pack(codes []int) uint64 {
	k := uint64(0)
	for i, c := range codes {
		k += uint64(c-p.offs[i]) * p.strides[i]
	}
	return k
}

// blockKeys computes the packed keys of rows [lo, hi) into
// keys[0 : hi-lo], reading each column's codes in bulk: packed string
// columns stream out of their bit-packed words, int and float columns
// out of their backing arrays — no per-row interface call. scratch must
// have capacity for hi-lo codes.
func (p packPlan) blockKeys(cols []Column, lo, hi int, keys []uint64, scratch []int32) {
	n := hi - lo
	keys = keys[:n]
	for j := range keys {
		keys[j] = 0
	}
	for i, c := range cols {
		off, stride := p.offs[i], p.strides[i]
		switch col := c.(type) {
		case *stringColumn:
			scratch = col.codes32(scratch[:0], lo, hi)
			for j, v := range scratch {
				keys[j] += uint64(int(v)-off) * stride
			}
		case *intColumn:
			o := int64(off)
			for j, v := range col.vals[lo:hi] {
				keys[j] += uint64(v-o) * stride
			}
		case *floatColumn:
			for j, v := range col.codes[lo:hi] {
				keys[j] += uint64(int(v)-off) * stride
			}
		default:
			for j := 0; j < n; j++ {
				keys[j] += uint64(c.Code(lo+j)-off) * stride
			}
		}
	}
}

// groupHint sizes a group-index map: half the rows is a fine guess for
// small tables, but on large low-cardinality tables it over-allocates
// badly (a million-row table rarely has half a million QI-groups), so
// the hint is capped.
func groupHint(nrows int) int {
	const maxHint = 1 << 16
	if h := nrows/2 + 1; h < maxHint {
		return h
	}
	return maxHint
}

// GroupBy partitions the table's rows by equality on the named columns.
// Groups are returned in order of first appearance, which makes results
// deterministic for a given row order. This is the engine behind the
// paper's "SELECT COUNT(*) ... GROUP BY key attributes" checks.
//
// Rows are resolved to groups by statsArena.scanKeys: block-at-a-time
// through packed uint64 keys when every key column's code cardinality
// is known and their product fits in a machine word, through per-row
// varint byte-string keys otherwise. Both paths produce identical
// groups in identical order (TestGroupByPackedAndFallbackAgree pins
// them).
func (t *Table) GroupBy(names ...string) ([]Group, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("table: group by with no columns")
	}
	cols, err := t.columns(names)
	if err != nil {
		return nil, err
	}
	ar := getStatsArena()
	defer ar.release()
	gids := make([]int32, t.nrows)
	ar.scanKeys(cols, 0, t.nrows, func(blo int, ids []int32) {
		copy(gids[blo:], ids)
	})
	// The sizes are known now, so every group's rows are cut from one
	// backing array instead of growing a slice per group.
	var groups []Group
	rows := make([]int, t.nrows)
	for g, r := range ar.reps {
		kv := make([]Value, len(cols))
		for i, c := range cols {
			kv[i] = c.Value(int(r))
		}
		n := int(ar.sizes[g])
		groups = append(groups, Group{Key: kv, Rows: rows[:0:n]})
		rows = rows[n:]
	}
	for r, g := range gids {
		groups[g].Rows = append(groups[g].Rows, r)
	}
	return groups, nil
}

// columns looks up the named columns.
func (t *Table) columns(names []string) ([]Column, error) {
	cols := make([]Column, len(names))
	for i, n := range names {
		c, err := t.Column(n)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return cols, nil
}

// varintKey appends row r's key over cols as varint-encoded codes: the
// byte-string key of the scans whose code ranges do not pack into 64
// bits.
func varintKey(dst []byte, cols []Column, r int) []byte {
	for _, c := range cols {
		dst = binary.AppendVarint(dst, int64(c.Code(r)))
	}
	return dst
}

// RowsBelow is the size-only grouping behind suppression. It groups the
// rows on the named columns, counting only each group's size, and
// returns below, the number of rows in groups smaller than k. When below
// is positive and at most limit, rows lists those rows in ascending
// order; otherwise rows is nil.
//
// A non-nil want is checked exactly: the grouping must equal it group
// for group. GroupStats lists groups in the order their first rows
// appear, the order this scan finds them in, so the rows must form as
// many groups as want holds, and the i-th must carry want's i-th codes
// and size. The first difference is an ErrStatsMismatch error, and
// nothing else is returned.
//
// The scan is statsArena.scanKeys, and only the arena's sizes and first
// rows are read: no group, key or row slice is built. The rows of small
// groups are listed by a second scan.
func (t *Table) RowsBelow(names []string, k, limit int, want *GroupStats) (rows []int, below int, err error) {
	if len(names) == 0 {
		return nil, 0, fmt.Errorf("table: group by with no columns")
	}
	cols, err := t.columns(names)
	if err != nil {
		return nil, 0, err
	}
	ar := getStatsArena()
	defer ar.release()
	ar.scanKeys(cols, 0, t.nrows, func(int, []int32) {})
	if err := matchStats(cols, ar.sizes, ar.reps, want); err != nil {
		return nil, 0, err
	}
	for _, n := range ar.sizes {
		if int(n) < k {
			below += int(n)
		}
	}
	if below == 0 || below > limit {
		return nil, below, nil
	}
	// The second scan resolves every key to the id the first gave it
	// (and counts each group again), so the final sizes are kept aside.
	sizes := resize(ar.target, len(ar.sizes))
	ar.target = sizes
	copy(sizes, ar.sizes)
	rows = make([]int, 0, below)
	ar.scanKeys(cols, 0, t.nrows, func(blo int, gids []int32) {
		for j, g := range gids {
			if int(sizes[g]) < k {
				rows = append(rows, blo+j)
			}
		}
	})
	return rows, below, nil
}

// matchStats checks a scan's groups, given by their sizes and first
// rows in first-appearance order, against want (RowsBelow's exact
// check). A nil want matches anything.
func matchStats(cols []Column, sizes, reps []int32, want *GroupStats) error {
	if want == nil {
		return nil
	}
	if len(want.Groups) != len(sizes) {
		return fmt.Errorf("table: %w: the rows form %d groups, the statistics hold %d", ErrStatsMismatch, len(sizes), len(want.Groups))
	}
	for i := range want.Groups {
		g := &want.Groups[i]
		if len(g.Codes) != len(cols) {
			return fmt.Errorf("table: %w: group %d has %d codes for %d key columns", ErrStatsMismatch, i, len(g.Codes), len(cols))
		}
		for c, col := range cols {
			if code := col.Code(int(reps[i])); code != g.Codes[c] {
				return fmt.Errorf("table: %w: group %d has codes %v in the statistics, but code %d in key column %d in the rows", ErrStatsMismatch, i, g.Codes, code, c)
			}
		}
		if int(sizes[i]) != g.Size {
			return fmt.Errorf("table: %w: group %d (codes %v) holds %d rows, the statistics say %d", ErrStatsMismatch, i, g.Codes, sizes[i], g.Size)
		}
	}
	return nil
}

// NumGroups counts the distinct combinations of values of the named
// columns: the group count of GroupStats over them, with no histograms.
func (t *Table) NumGroups(names ...string) (int, error) {
	s, err := t.GroupStats(names, nil, 1)
	if err != nil {
		return 0, err
	}
	return s.NumGroups(), nil
}

// DistinctCount counts the distinct values in the named column, the
// paper's "SELECT COUNT(DISTINCT S) FROM IM": the group count of the
// column on its own.
func (t *Table) DistinctCount(name string) (int, error) {
	return t.NumGroups(name)
}

// ValueCounts returns the frequency of each distinct value in the named
// column, sorted by descending frequency (ties broken by value order so
// results are deterministic): each group of GroupStats over the column
// alone, its size and the value at its first row.
func (t *Table) ValueCounts(name string) ([]ValueCount, error) {
	s, err := t.GroupStats([]string{name}, nil, 1)
	if err != nil {
		return nil, err
	}
	c, _ := t.Column(name) // GroupStats has found it
	out := make([]ValueCount, len(s.Groups))
	for i, g := range s.Groups {
		out[i] = ValueCount{Value: c.Value(g.Rep), Count: g.Size}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value.Compare(out[j].Value) < 0
	})
	return out, nil
}

// ValueCount pairs a distinct value with its number of occurrences.
type ValueCount struct {
	Value Value
	Count int
}
