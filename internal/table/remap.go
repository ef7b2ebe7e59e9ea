package table

import "fmt"

// Remap is the per-distinct-value half of a column remap: a pure
// function applied once to every dictionary entry of one source column.
// It holds the target dictionary and, for each visited source value, its
// source code and its target code. Column is the other half: it
// translates the source rows through the remap. CodeMapBetween reads a
// code translation between two remaps of one column off their entries,
// without touching rows, and assigns the codes Column assigns by
// construction.
//
// Values are visited in dictionary order: code order for string and
// float columns, ascending value for int columns. An int column's codes
// are its values, so its source codes are neither dense nor in
// first-appearance order.
//
// A Remap is immutable once built and safe for concurrent use.
type Remap struct {
	src Column
	// target holds the target dictionary; it has no rows.
	target *stringColumn
	// codes holds each visited value's source code; nil when the visit
	// index is the source code (string and float dictionaries).
	codes []int
	// dst holds each visited value's target code, -1 where fn failed.
	dst []int32
	// errs holds fn's error per visited value; nil when none failed.
	errs []error
}

// Remap applies fn once per distinct value of the named column. A string
// column's dictionary may be shared with the table it was gathered from
// and hold values no row carries, so fn's errors are kept per value and
// surface only where a row carries the value: Column fails, and
// CodeMapBetween leaves the value out of its maps. Int and float dictionaries hold only values
// some row carries, so fn's first error fails the walk.
func (t *Table) Remap(name string, fn func(Value) (string, error)) (*Remap, error) {
	idx := t.schema.Index(name)
	if idx < 0 {
		return nil, fmt.Errorf("table: %w: %q", ErrNoColumn, name)
	}
	r := &Remap{src: t.cols[idx], target: newStringColumn()}
	mapErr := func(v Value, err error) error {
		return fmt.Errorf("table: map column %q value %q: %w", name, v.Str(), err)
	}
	switch src := t.cols[idx].(type) {
	case *stringColumn:
		r.dst = make([]int32, len(src.dict))
		for code, s := range src.dict {
			out, err := fn(SV(s))
			if err != nil {
				if r.errs == nil {
					r.errs = make([]error, len(src.dict))
				}
				r.errs[code] = mapErr(SV(s), err)
				r.dst[code] = -1
				continue
			}
			r.dst[code] = r.target.intern(out)
		}
	case *intColumn:
		d := src.intDict()
		r.codes = make([]int, len(d.vals))
		r.dst = make([]int32, len(d.vals))
		for id, v := range d.vals {
			out, err := fn(IV(v))
			if err != nil {
				return nil, mapErr(IV(v), err)
			}
			r.codes[id] = int(v)
			r.dst[id] = r.target.intern(out)
		}
	case *floatColumn:
		r.dst = make([]int32, len(src.dict))
		for code, f := range src.dict {
			out, err := fn(FV(f))
			if err != nil {
				return nil, mapErr(FV(f), err)
			}
			r.dst[code] = r.target.intern(out)
		}
	default:
		return nil, fmt.Errorf("table: column %q (%T) has no dictionary to remap", name, src)
	}
	return r, nil
}

// MemBytes estimates the heap bytes the remap holds: the target
// dictionary, which columns built from the remap borrow, and the
// per-value code arrays.
func (r *Remap) MemBytes() int64 {
	return r.target.memBytes() + int64(len(r.dst))*4 + int64(len(r.codes))*8 + int64(len(r.errs))*16
}

// Single reports whether the remap sends every value of its column to
// one label: fn succeeded on every value and produced at most one
// distinct label, so a column translated through it puts all rows in
// one group.
func (r *Remap) Single() bool { return r.errs == nil && len(r.target.dict) <= 1 }

// sourceCode returns the source code of the i-th visited value.
func (r *Remap) sourceCode(i int) int {
	if r.codes != nil {
		return r.codes[i]
	}
	return i
}

// Column translates the source rows through the remap into the string
// column MapColumn would install for fn: per row two array lookups and a
// packed write, no string built or hashed and no unpacked code array.
// The column shares the remap's dictionary, as Gather shares one.
func (r *Remap) Column() (Column, error) {
	n := r.src.Len()
	k := newCodePacker(n, len(r.target.dict))
	switch src := r.src.(type) {
	case *stringColumn:
		translate := func(block []int32) error {
			for _, code := range block {
				m := r.dst[code]
				if m < 0 {
					return r.errs[code]
				}
				k.put(m)
			}
			return nil
		}
		if !src.frozen {
			if err := translate(src.codes); err != nil {
				return nil, err
			}
			break
		}
		scratch := make([]int32, 0, blockRows)
		for lo := 0; lo < n; lo += blockRows {
			scratch = src.packed.appendRange32(scratch[:0], lo, min(lo+blockRows, n))
			if err := translate(scratch); err != nil {
				return nil, err
			}
		}
	case *intColumn:
		d := src.intDict()
		if d.dense != nil {
			for _, v := range src.vals {
				k.put(r.dst[d.dense[v-d.lo]-1])
			}
		} else {
			for _, v := range src.vals {
				k.put(r.dst[d.byVal[v]])
			}
		}
	case *floatColumn:
		for _, code := range src.codes {
			k.put(r.dst[code])
		}
	}
	out := &stringColumn{dict: r.target.dict, index: r.target.index, frozen: true, packed: k.p}
	out.dictShared.Store(true)
	return out, nil
}

// CodeMapBetween reads the code translation between two remaps of one
// source column off their entries, in O(distinct values): the i-th
// visited value's code under from maps to its code under to. A nil remap
// stands for the source column's own codes (hierarchy level 0).
//
// A value fn failed on has no code on that side and is left out, so a
// row carrying it has no translation and a roll-up through the map
// fails, as its column does; a gathered string column's dictionary may
// hold such values with no row carrying them. ok is false on a conflict
// only: two values sharing a from code part under to, or one of them
// fails there. Whether rows refute the map is then a row question, which
// the caller settles by grouping the node's rows directly.
func CodeMapBetween(from, to *Remap) (cm *CodeMap, ok bool) {
	r := from
	if r == nil {
		r = to
	}
	if r == nil || (from != nil && to != nil && from.src != to.src) {
		return nil, false
	}
	// code returns the i-th value's code on one side; ok is false where
	// fn failed on the value.
	code := func(side *Remap, i int) (c int, ok bool) {
		if side == nil {
			return r.sourceCode(i), true
		}
		return int(side.dst[i]), side.dst[i] >= 0
	}
	lo, hi, seen := 0, 0, false
	for i := range r.dst {
		if c, ok := code(from, i); ok {
			if !seen {
				lo, hi, seen = c, c, true
			}
			lo, hi = min(lo, c), max(hi, c)
		}
	}
	m := newCodeMap(lo, hi, seen)
	var failed []int // from codes of values fn failed on under to
	for i := range r.dst {
		fc, ok := code(from, i)
		if !ok {
			continue
		}
		tc, ok := code(to, i)
		if !ok {
			failed = append(failed, fc)
			continue
		}
		if m.add(fc, tc) != tc {
			return nil, false
		}
	}
	for _, fc := range failed {
		if _, mapped := m.Map(fc); mapped {
			return nil, false
		}
	}
	return m, true
}
