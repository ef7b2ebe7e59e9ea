package table

import (
	"fmt"
	"math"
)

// unmappedCode marks dense CodeMap slots no source code was observed
// for. Only an Int column holding math.MinInt64 produces it as a real
// code; a map that must translate to it goes sparse (add).
const unmappedCode = math.MinInt

// denseCodeMapSpan bounds the source code range a CodeMap will cover
// with a flat slice; wider ranges fall back to a hash map so sparse
// numeric columns do not explode memory.
const denseCodeMapSpan = 1 << 20

// CodeMap translates the codes of one column into the codes of a
// row-aligned column over the same rows. The roll-up layer uses it to
// move a QI-group key from one hierarchy level to a more generalized
// one without rescanning rows: full-domain recoding guarantees the
// translation is a function (rows that agree at the finer level agree
// at every coarser level).
//
// A nil *CodeMap is the identity translation; Map on it returns the
// code unchanged.
type CodeMap struct {
	lo     int
	dense  []int
	sparse map[int]int
}

// Map translates a source code. ok is false when the code was never
// observed in the source column the map was built from.
func (m *CodeMap) Map(code int) (int, bool) {
	if m == nil {
		return code, true
	}
	if m.dense != nil {
		i := code - m.lo
		if i < 0 || i >= len(m.dense) || m.dense[i] == unmappedCode {
			return 0, false
		}
		return m.dense[i], true
	}
	v, ok := m.sparse[code]
	return v, ok
}

// Len reports the number of distinct source codes the map covers.
func (m *CodeMap) Len() int {
	if m == nil {
		return 0
	}
	if m.dense != nil {
		n := 0
		for _, v := range m.dense {
			if v != unmappedCode {
				n++
			}
		}
		return n
	}
	return len(m.sparse)
}

// NewSparseCodeMap builds a CodeMap from an explicit translation table
// (copied, so the caller's map stays independent). The incremental
// session uses it to roll base-level group statistics up to its own
// published-node code space, which no column pair describes.
func NewSparseCodeMap(m map[int]int) *CodeMap {
	sp := make(map[int]int, len(m))
	for k, v := range m {
		sp[k] = v
	}
	return &CodeMap{sparse: sp}
}

// newCodeMap returns an empty map for source codes in [lo, hi]: a flat
// slice when the span is modest, a hash map when it is wide or unknown.
// The span is computed unsigned, as intDict computes it: signed
// subtraction overflows for int codes far apart (values near ±2^62),
// and a wrapped span would slip past the cap.
func newCodeMap(lo, hi int, known bool) *CodeMap {
	if known && hi >= lo {
		if span := uint64(hi) - uint64(lo) + 1; span != 0 && span <= denseCodeMapSpan {
			m := &CodeMap{lo: lo, dense: make([]int, span)}
			for i := range m.dense {
				m.dense[i] = unmappedCode
			}
			return m
		}
	}
	return &CodeMap{sparse: make(map[int]int)}
}

// add records fc -> tc unless fc is already mapped, and returns the
// code fc maps to afterwards: tc, or the earlier translation. A dense
// map requires fc inside its range, and turns sparse when tc is the
// value that marks its unmapped slots.
func (m *CodeMap) add(fc, tc int) int {
	if m.dense != nil && tc == unmappedCode {
		m.sparse = make(map[int]int)
		for i, v := range m.dense {
			if v != unmappedCode {
				m.sparse[m.lo+i] = v
			}
		}
		m.dense = nil
	}
	if m.dense != nil {
		i := fc - m.lo
		if cur := m.dense[i]; cur != unmappedCode {
			return cur
		}
		m.dense[i] = tc
		return tc
	}
	if cur, ok := m.sparse[fc]; ok {
		return cur
	}
	m.sparse[fc] = tc
	return tc
}

// BuildCodeMap derives the code translation from one column to a
// row-aligned column: for every row r, Map(from.Code(r)) ==
// to.Code(r). It errors when the columns disagree on length or when
// the relation is not functional — two rows sharing a source code but
// holding different target codes — which would mean the columns are
// not nested refinements of each other (a broken hierarchy). It reads
// every row; CodeMapBetween derives the same translation from two
// remaps in O(distinct values), and the tests pin the two together.
func BuildCodeMap(from, to Column) (*CodeMap, error) {
	if from == nil || to == nil {
		return nil, fmt.Errorf("table: code map requires two columns")
	}
	n := from.Len()
	if to.Len() != n {
		return nil, fmt.Errorf("table: code map columns have %d vs %d rows", n, to.Len())
	}
	var lo, hi int
	var known bool
	if cr, ok := from.(codeRanger); ok {
		lo, hi, known = cr.CodeRange()
	}
	m := newCodeMap(lo, hi, known)
	for r := 0; r < n; r++ {
		fc, tc := from.Code(r), to.Code(r)
		if m.dense != nil && uint64(fc)-uint64(m.lo) >= uint64(len(m.dense)) {
			return nil, fmt.Errorf("table: code map: row %d code %d outside declared range", r, fc)
		}
		if cur := m.add(fc, tc); cur != tc {
			return nil, fmt.Errorf("table: code map not functional: code %d maps to both %d and %d", fc, cur, tc)
		}
	}
	return m, nil
}
