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
// code tuples map to distinct keys). The encoding is invertible —
// code_i = off_i + (key / stride_i) mod span_i — which is how the
// chunked stats kernel recovers group codes without touching rows.
type packPlan struct {
	offs    []int
	strides []uint64
	spans   []uint64
	// span is the total key-space size (the product of the per-column
	// spans); keys lie in [0, span).
	span uint64
}

// packedPlan builds the uint64 packing plan for the key columns, or
// reports ok=false when some column's codes are unbounded or the
// combined cardinality overflows.
func packedPlan(cols []Column) (packPlan, bool) {
	offs := make([]int, len(cols))
	strides := make([]uint64, len(cols))
	spans := make([]uint64, len(cols))
	stride := uint64(1)
	for i, c := range cols {
		cr, ok := c.(codeRanger)
		if !ok {
			return packPlan{}, false
		}
		lo, hi, ok := cr.CodeRange()
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
		spans[i] = span
		stride *= span
	}
	return packPlan{offs: offs, strides: strides, spans: spans, span: stride}, true
}

// key packs row r's codes per the plan.
func (p packPlan) key(cols []Column, r int) uint64 {
	k := uint64(0)
	for i, c := range cols {
		k += uint64(c.Code(r)-p.offs[i]) * p.strides[i]
	}
	return k
}

// codes inverts a packed key back into per-column codes.
func (p packPlan) codes(k uint64, dst []int) {
	for i := range dst {
		dst[i] = p.offs[i] + int((k/p.strides[i])%p.spans[i])
	}
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

// groupHint sizes the group-index maps of GroupBy, NumGroups and
// GroupStats: half the rows is a fine guess for small tables, but on
// large low-cardinality tables it over-allocates badly (a million-row
// table rarely has half a million QI-groups), so the hint is capped.
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
// When every key column's code cardinality is known and their product
// fits in a machine word, rows are scanned block-at-a-time through
// packed uint64 keys, resolved against a flat key table (small key
// spaces) or an int-keyed map; otherwise the per-row varint byte-string
// key is used. All paths produce identical groups in identical order
// (TestGroupByPackedAndFallbackAgree pins them).
func (t *Table) GroupBy(names ...string) ([]Group, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("table: group by with no columns")
	}
	cols := make([]Column, len(names))
	for i, n := range names {
		c, err := t.Column(n)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	var groups []Group
	newGroup := func(r int) Group {
		kv := make([]Value, len(cols))
		for i, c := range cols {
			kv[i] = c.Value(r)
		}
		return Group{Key: kv}
	}
	if plan, ok := packedPlan(cols); ok {
		ar := getStatsArena()
		defer ar.release()
		dense := plan.span <= maxDenseKeySpan
		if dense {
			ar.ensureKeyTable(int(plan.span))
		}
		for lo := 0; lo < t.nrows; lo += blockRows {
			hi := lo + blockRows
			if hi > t.nrows {
				hi = t.nrows
			}
			plan.blockKeys(cols, lo, hi, ar.keys, ar.scratch)
			if dense {
				for j, k := range ar.keys[:hi-lo] {
					g := ar.keyTable[k]
					if g == 0 {
						g = int32(len(groups)) + 1
						ar.keyTable[k] = g
						ar.gkeys = append(ar.gkeys, k)
						groups = append(groups, newGroup(lo+j))
					}
					groups[g-1].Rows = append(groups[g-1].Rows, lo+j)
				}
			} else {
				for j, k := range ar.keys[:hi-lo] {
					g, ok := ar.idx[k]
					if !ok {
						g = int32(len(groups))
						ar.idx[k] = g
						groups = append(groups, newGroup(lo+j))
					}
					groups[g].Rows = append(groups[g].Rows, lo+j)
				}
			}
		}
		return groups, nil
	}
	idx := make(map[string]int, groupHint(t.nrows))
	key := make([]byte, 0, 16*len(cols))
	for r := 0; r < t.nrows; r++ {
		key = key[:0]
		for _, c := range cols {
			key = binary.AppendVarint(key, int64(c.Code(r)))
		}
		g, ok := idx[string(key)]
		if !ok {
			g = len(groups)
			idx[string(key)] = g
			groups = append(groups, newGroup(r))
		}
		groups[g].Rows = append(groups[g].Rows, r)
	}
	return groups, nil
}

// NumGroups counts the distinct combinations of values of the named
// columns without materializing the groups. It uses the same packed
// uint64 fast path as GroupBy when the key columns admit it.
func (t *Table) NumGroups(names ...string) (int, error) {
	if len(names) == 0 {
		return 0, fmt.Errorf("table: group count with no columns")
	}
	cols := make([]Column, len(names))
	for i, n := range names {
		c, err := t.Column(n)
		if err != nil {
			return 0, err
		}
		cols[i] = c
	}
	if plan, ok := packedPlan(cols); ok {
		ar := getStatsArena()
		defer ar.release()
		dense := plan.span <= maxDenseKeySpan
		if dense {
			ar.ensureKeyTable(int(plan.span))
		}
		n := 0
		for lo := 0; lo < t.nrows; lo += blockRows {
			hi := lo + blockRows
			if hi > t.nrows {
				hi = t.nrows
			}
			plan.blockKeys(cols, lo, hi, ar.keys, ar.scratch)
			if dense {
				for _, k := range ar.keys[:hi-lo] {
					if ar.keyTable[k] == 0 {
						ar.keyTable[k] = 1
						ar.gkeys = append(ar.gkeys, k)
						n++
					}
				}
			} else {
				for _, k := range ar.keys[:hi-lo] {
					if _, ok := ar.idx[k]; !ok {
						ar.idx[k] = 1
						n++
					}
				}
			}
		}
		return n, nil
	}
	seen := make(map[string]struct{}, groupHint(t.nrows))
	key := make([]byte, 0, 16*len(cols))
	for r := 0; r < t.nrows; r++ {
		key = key[:0]
		for _, c := range cols {
			key = binary.AppendVarint(key, int64(c.Code(r)))
		}
		if _, ok := seen[string(key)]; !ok {
			seen[string(key)] = struct{}{}
		}
	}
	return len(seen), nil
}

// DistinctCount counts the distinct values in the named column, the
// paper's "SELECT COUNT(DISTINCT S) FROM IM".
func (t *Table) DistinctCount(name string) (int, error) {
	c, err := t.Column(name)
	if err != nil {
		return 0, err
	}
	seen := make(map[int]struct{})
	for i := 0; i < c.Len(); i++ {
		seen[c.Code(i)] = struct{}{}
	}
	return len(seen), nil
}

// ValueCounts returns the frequency of each distinct value in the named
// column, sorted by descending frequency (ties broken by value order so
// results are deterministic).
func (t *Table) ValueCounts(name string) ([]ValueCount, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	byCode := make(map[int]*ValueCount)
	order := make([]int, 0)
	for i := 0; i < c.Len(); i++ {
		code := c.Code(i)
		vc, ok := byCode[code]
		if !ok {
			vc = &ValueCount{Value: c.Value(i)}
			byCode[code] = vc
			order = append(order, code)
		}
		vc.Count++
	}
	out := make([]ValueCount, 0, len(order))
	for _, code := range order {
		out = append(out, *byCode[code])
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
