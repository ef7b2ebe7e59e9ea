package table

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Column is one typed column of a table. Implementations are append-only
// while a table is being built and immutable afterwards.
type Column interface {
	// Type reports the logical type of the column.
	Type() Type
	// Len reports the number of stored values.
	Len() int
	// Value returns the value at row i.
	Value(i int) Value
	// AppendValue appends a value, converting it to the column type.
	AppendValue(v Value) error
	// AppendText parses a textual cell and appends it.
	AppendText(s string) error
	// Gather returns a new column holding the values at the given rows.
	Gather(rows []int) Column
	// Code returns a small integer identifying the value at row i such
	// that two rows have the same code iff they hold equal values. Codes
	// are only comparable within one column.
	Code(i int) int
}

// codeRanger is an optional Column capability: columns that know an
// inclusive [lo, hi] range containing every code report it, which lets
// GroupBy and NumGroups pack multi-column keys into a single uint64
// instead of a varint byte string. ok must be false when the range is
// unknown or the column is empty.
type codeRanger interface {
	CodeRange() (lo, hi int, ok bool)
}

// freezer is an optional Column capability: seal the column into its
// immutable read-optimized form (bit-packed codes). Builder.Build and
// the column-assembly paths call it; appending to a frozen column
// transparently unfreezes it first.
type freezer interface {
	freeze()
}

// reserveRows sets aside storage for rows rows in each of the empty
// columns NewColumn returned, as ReadCSV does once it has counted the
// records of a sized input.
func reserveRows(cols []Column, rows int) {
	for _, c := range cols {
		switch c := c.(type) {
		case *stringColumn:
			c.codes = make([]int32, 0, rows)
		case *intColumn:
			c.vals = make([]int64, 0, rows)
		case *floatColumn:
			c.vals = make([]float64, 0, rows)
			c.codes = make([]int32, 0, rows)
		}
	}
}

// window returns an empty column of c's type that appends into rows
// [lo, hi) of the storage reserveRows set aside in c: its slices alias
// c's, with their capacity capped at hi, so no append can move them.
// Its dictionary is its own until absorb merges it into c's.
func window(c Column, lo, hi int) Column {
	switch c := c.(type) {
	case *stringColumn:
		return &stringColumn{index: make(map[string]int32), codes: c.codes[lo:lo:hi]}
	case *intColumn:
		return &intColumn{vals: c.vals[lo:lo:hi]}
	case *floatColumn:
		return &floatColumn{nanCode: -1, vals: c.vals[lo:lo:hi], codes: c.codes[lo:lo:hi]}
	}
	panic(fmt.Sprintf("table: no row window of a %T", c))
}

// absorb merges the dictionary of w, a window of c, into c's: the first
// window's becomes c's, and a later one's values are interned in code
// order, so c's dictionary stays in first-appearance order, and its rows'
// codes are remapped in place. Windows are absorbed in row order.
func absorb(c, w Column, first bool) {
	switch c := c.(type) {
	case *stringColumn:
		w := w.(*stringColumn)
		if first {
			c.dict, c.index = w.dict, w.index
			return
		}
		remap := make([]int32, len(w.dict))
		for i, s := range w.dict {
			remap[i] = c.intern(s)
		}
		remapCodes(w.codes, remap)
	case *floatColumn:
		w := w.(*floatColumn)
		if first {
			c.dict, c.index, c.nanCode = w.dict, w.index, w.nanCode
			return
		}
		remap := make([]int32, len(w.dict))
		for i, f := range w.dict {
			remap[i] = c.code(f)
		}
		remapCodes(w.codes, remap)
	}
}

// remapCodes replaces each code with remap[code], unless remap is the
// identity.
func remapCodes(codes, remap []int32) {
	for i, to := range remap {
		if to != int32(i) {
			for j, c := range codes {
				codes[j] = remap[c]
			}
			return
		}
	}
}

// setLen extends the columns' slices over rows rows of the storage
// reserveRows set aside, which their windows have filled.
func setLen(c Column, rows int) {
	switch c := c.(type) {
	case *stringColumn:
		c.codes = c.codes[:rows]
	case *intColumn:
		c.vals = c.vals[:rows]
	case *floatColumn:
		c.vals, c.codes = c.vals[:rows], c.codes[:rows]
	}
}

// NewColumn returns an empty column of the given type.
func NewColumn(t Type) Column {
	switch t {
	case Int:
		return &intColumn{}
	case Float:
		return newFloatColumn()
	default:
		return newStringColumn()
	}
}

// stringColumn stores categorical data dictionary-encoded: the dict holds
// each distinct string once, codes index into it. Group-by and frequency
// counting operate on codes, never on string bytes.
//
// The column has two storage states. While being built, codes live in a
// plain []int32. freeze() — called by Builder.Build and every derived-
// column constructor — packs them to ceil(log2(len(dict))) bits per row
// (packedCodes), the form every read path serves from. Appending to a
// frozen column unfreezes it first; that round-trip is exact.
type stringColumn struct {
	dict  []string
	index map[string]int32
	codes []int32

	frozen bool
	packed packedCodes

	// dictShared marks dict/index as shared with at least one other
	// column (Gather shares them — the dictionary is append-only, so
	// sharing is safe for readers). It is set on both the lender and
	// the borrower, atomically, because parallel searches Gather the
	// same cached column concurrently. The first append of a value
	// absent from the dictionary clones both before writing, so no
	// sharer ever observes another's mutation.
	dictShared atomic.Bool
}

func newStringColumn() *stringColumn {
	return &stringColumn{index: make(map[string]int32)}
}

func (c *stringColumn) Type() Type { return String }

func (c *stringColumn) Len() int {
	if c.frozen {
		return c.packed.n
	}
	return len(c.codes)
}

func (c *stringColumn) Value(i int) Value { return SV(c.dict[c.Code(i)]) }

func (c *stringColumn) Code(i int) int {
	if c.frozen {
		return int(c.packed.get(i))
	}
	return int(c.codes[i])
}

// codes32 appends the codes of rows [lo, hi) to dst. The scan
// kernels read codes a block at a time through it instead of paying a
// dynamic dispatch per row; a frozen column serves it straight from its
// bit-packed stream.
func (c *stringColumn) codes32(dst []int32, lo, hi int) []int32 {
	if c.frozen {
		return c.packed.appendRange32(dst, lo, hi)
	}
	return append(dst, c.codes[lo:hi]...)
}

func (c *stringColumn) memBytes() int64 {
	n := int64(len(c.codes))*4 + c.packed.memBytes()
	for _, s := range c.dict {
		// string bytes + header, counted twice: once in dict, once as
		// an index key.
		n += 2 * (int64(len(s)) + 16)
	}
	return n
}

// CodeRange: dictionary codes are dense in [0, len(dict)).
func (c *stringColumn) CodeRange() (int, int, bool) {
	if len(c.dict) == 0 {
		return 0, 0, false
	}
	return 0, len(c.dict) - 1, true
}

func (c *stringColumn) freeze() {
	if c.frozen {
		return
	}
	c.packed = packCodes(c.codes, len(c.dict))
	c.codes = nil
	c.frozen = true
}

func (c *stringColumn) unfreeze() {
	c.codes = c.packed.unpack()
	c.packed = packedCodes{}
	c.frozen = false
}

// intern returns the code for s, adding it to the dictionary if absent.
func (c *stringColumn) intern(s string) int32 {
	code, ok := c.index[s]
	if ok {
		return code
	}
	if c.dictShared.Load() {
		// Copy-on-write: never grow a shared dictionary in place — two
		// sharers appending would race on the backing array, and a
		// sharer interning through the common index could find a code
		// beyond its own dict's length.
		c.dict = append([]string(nil), c.dict...)
		index := make(map[string]int32, len(c.index)+1)
		for k, v := range c.index {
			index[k] = v
		}
		c.index = index
		c.dictShared.Store(false)
	}
	code = int32(len(c.dict))
	c.dict = append(c.dict, s)
	c.index[s] = code
	return code
}

func (c *stringColumn) append(s string) {
	if c.frozen {
		c.unfreeze()
	}
	c.codes = append(c.codes, c.intern(s))
}

func (c *stringColumn) AppendValue(v Value) error {
	c.append(v.Str())
	return nil
}

func (c *stringColumn) AppendText(s string) error {
	c.append(s)
	return nil
}

// Gather shares the dictionary with the source (it is append-only) and
// copies only the selected rows' codes, so a gather costs O(rows)
// regardless of dictionary size. The gathered dictionary may contain
// values no selected row holds; code semantics are unaffected. Codes go
// straight into packed storage: an ascending run of rows is copied as
// a bit stream, a lone row code by code.
func (c *stringColumn) Gather(rows []int) Column {
	// Sharing is copy-on-write in both directions: the borrower must
	// not grow the lender's dictionary, and the lender must not grow
	// the now-shared dictionary in place underneath the borrower — a
	// borrower interning a value the lender added later would find a
	// code beyond its own dictionary. Marking the lender is an atomic
	// store because concurrent searches Gather shared cached columns.
	c.dictShared.Store(true)
	out := &stringColumn{dict: c.dict, index: c.index, frozen: true}
	out.dictShared.Store(true)
	k := newCodePacker(len(rows), len(c.dict))
	if c.frozen {
		// A frozen column packs its codes at its dictionary's width, as
		// the packer does (appending unfreezes it first).
		k.gather(&c.packed, rows)
	} else {
		for _, r := range rows {
			k.put(c.codes[r])
		}
	}
	out.packed = k.p
	return out
}

type intColumn struct {
	vals []int64

	// Observed value range, computed lazily on the first CodeRange call.
	// sync.Once makes the computation safe under concurrent group-bys of
	// a shared table; columns are immutable once the table is built.
	rangeOnce sync.Once
	lo, hi    int64

	// Distinct-value dictionary, computed lazily on first use by the
	// group-statistics scan and code remapping (same immutability
	// argument as rangeOnce).
	dictOnce sync.Once
	dict     *intDict
}

// intDict enumerates an int column's distinct values in ascending
// order; a value's id is its rank. Lookup is a flat array when the
// value span is modest, a map otherwise.
type intDict struct {
	vals  []int64
	lo    int64
	dense []int32 // value-lo -> id+1 (0 = absent), when span fits
	byVal map[int64]int32
}

// intDictMaxSpan caps the dense lookup (and presence-scan) span; wider
// ranges fall back to map-based construction and lookup. A roll-up's
// histogram accumulator applies the same cap to an attribute's codes.
const intDictMaxSpan = 1 << 20

func (c *intColumn) intDict() *intDict {
	c.dictOnce.Do(func() {
		d := &intDict{}
		if len(c.vals) == 0 {
			c.dict = d
			return
		}
		lo, hi, _ := c.CodeRange()
		// The span is computed unsigned: signed subtraction overflows for
		// wide value ranges (lo near MinInt64, hi near MaxInt64), and a
		// wrapped span would slip past the cap into the dense path and
		// panic on make or on the presence scan. uint64(hi)-uint64(lo) is
		// the exact difference for any int64 pair; the +1 wraps to 0 only
		// for the full 2^64-wide domain, which the != 0 guard routes to
		// the map path along with every other over-cap span.
		uspan := uint64(hi) - uint64(lo) + 1
		if uspan != 0 && uspan <= intDictMaxSpan {
			d.lo = int64(lo)
			d.dense = make([]int32, uspan)
			for _, v := range c.vals {
				d.dense[v-d.lo] = 1
			}
			for i, present := range d.dense {
				if present != 0 {
					d.dense[i] = int32(len(d.vals)) + 1
					d.vals = append(d.vals, d.lo+int64(i))
				}
			}
		} else {
			d.byVal = make(map[int64]int32)
			for _, v := range c.vals {
				if _, ok := d.byVal[v]; !ok {
					d.byVal[v] = 0
				}
			}
			d.vals = make([]int64, 0, len(d.byVal))
			for v := range d.byVal {
				d.vals = append(d.vals, v)
			}
			sort.Slice(d.vals, func(i, j int) bool { return d.vals[i] < d.vals[j] })
			for i, v := range d.vals {
				d.byVal[v] = int32(i)
			}
		}
		c.dict = d
	})
	return c.dict
}

// id returns the rank of v, which must be present in the column.
func (d *intDict) id(v int64) int32 {
	if d.dense != nil {
		return d.dense[v-d.lo] - 1
	}
	return d.byVal[v]
}

func (c *intColumn) Type() Type        { return Int }
func (c *intColumn) Len() int          { return len(c.vals) }
func (c *intColumn) Value(i int) Value { return IV(c.vals[i]) }

func (c *intColumn) Code(i int) int { return int(c.vals[i]) }

// CodeRange reports the observed [min, max] value range.
func (c *intColumn) CodeRange() (int, int, bool) {
	if len(c.vals) == 0 {
		return 0, 0, false
	}
	c.rangeOnce.Do(func() {
		c.lo, c.hi = c.vals[0], c.vals[0]
		for _, v := range c.vals[1:] {
			if v < c.lo {
				c.lo = v
			}
			if v > c.hi {
				c.hi = v
			}
		}
	})
	return int(c.lo), int(c.hi), true
}

// invalidate discards the lazily computed range and dictionary memos.
// Every append must call it: a CodeRange or intDict computed before the
// column grew would otherwise keep serving stale values, and the packed
// group-by plans and code remaps built on them would misclassify (or
// panic on) appended rows. Appends are single-threaded by the Column
// contract — build phase or ledger mutation — so replacing the
// sync.Once values with fresh ones is safe.
func (c *intColumn) invalidate() {
	c.rangeOnce = sync.Once{}
	c.dictOnce = sync.Once{}
	c.dict = nil
}

func (c *intColumn) AppendValue(v Value) error {
	if v.Kind() == String {
		return c.AppendText(v.Str())
	}
	c.invalidate()
	c.vals = append(c.vals, v.Int())
	return nil
}

func (c *intColumn) AppendText(s string) error {
	n, err := strconv.ParseInt(trimSpace(s), 10, 64)
	if err != nil {
		return fmt.Errorf("table: cannot parse %q as int: %w", s, err)
	}
	c.invalidate()
	c.vals = append(c.vals, n)
	return nil
}

func (c *intColumn) Gather(rows []int) Column {
	out := &intColumn{vals: make([]int64, 0, len(rows))}
	for _, r := range rows {
		out.vals = append(out.vals, c.vals[r])
	}
	return out
}

// floatColumn stores floats dictionary-encoded like strings: vals keeps
// every row's payload (so Value round-trips bit-exactly, -0.0
// included), codes identify rows with equal values via a distinct-value
// dictionary. The former code scheme — int64(v*1e6) — collided distinct
// small values and overflowed on large magnitudes; dictionary codes
// cannot.
type floatColumn struct {
	vals  []float64
	dict  []float64
	index map[float64]int32
	codes []int32
	// nanCode interns NaN, which map lookups can't (NaN != NaN): every
	// NaN row shares one code, matching the numeric-comparison notion of
	// a single missing-value class the old scheme had.
	nanCode int32
}

func newFloatColumn() *floatColumn { return &floatColumn{nanCode: -1} }

func (c *floatColumn) Type() Type        { return Float }
func (c *floatColumn) Len() int          { return len(c.vals) }
func (c *floatColumn) Value(i int) Value { return FV(c.vals[i]) }

func (c *floatColumn) Code(i int) int { return int(c.codes[i]) }

// CodeRange: dictionary codes are dense in [0, len(dict)), which admits
// float confidential attributes to the packed group-by key path.
func (c *floatColumn) CodeRange() (int, int, bool) {
	if len(c.dict) == 0 {
		return 0, 0, false
	}
	return 0, len(c.dict) - 1, true
}

func (c *floatColumn) append(f float64) {
	c.vals = append(c.vals, f)
	c.codes = append(c.codes, c.code(f))
}

// code returns the code for f, adding f to the dictionary if absent.
func (c *floatColumn) code(f float64) int32 {
	if c.index == nil {
		c.index = make(map[float64]int32)
	}
	if math.IsNaN(f) {
		if c.nanCode < 0 {
			c.nanCode = int32(len(c.dict))
			c.dict = append(c.dict, f)
		}
		return c.nanCode
	}
	code, ok := c.index[f]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, f)
		c.index[f] = code
	}
	return code
}

func (c *floatColumn) AppendValue(v Value) error {
	if v.Kind() == String {
		return c.AppendText(v.Str())
	}
	c.append(v.Float())
	return nil
}

func (c *floatColumn) AppendText(s string) error {
	f, err := strconv.ParseFloat(trimSpace(s), 64)
	if err != nil {
		return fmt.Errorf("table: cannot parse %q as float: %w", s, err)
	}
	c.append(f)
	return nil
}

func (c *floatColumn) Gather(rows []int) Column {
	out := newFloatColumn()
	for _, r := range rows {
		out.append(c.vals[r])
	}
	return out
}

func trimSpace(s string) string {
	start, end := 0, len(s)
	for start < end && (s[start] == ' ' || s[start] == '\t') {
		start++
	}
	for end > start && (s[end-1] == ' ' || s[end-1] == '\t') {
		end--
	}
	return s[start:end]
}
