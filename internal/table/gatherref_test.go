package table

import "fmt"

// gatherRef is Table.Gather with the per-row stringColumn.Gather body
// that the run-copying one replaced (gatherCodesRef), kept as the
// reference FuzzGather compares it against. Int and Float columns gather
// as they always did.
func (t *Table) gatherRef(rows []int) (*Table, error) {
	for _, r := range rows {
		if r < 0 || r >= t.nrows {
			return nil, fmt.Errorf("table: %w: %d", ErrRowRange, r)
		}
	}
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		if sc, ok := c.(*stringColumn); ok {
			cols[i] = sc.gatherCodesRef(rows)
		} else {
			cols[i] = c.Gather(rows)
		}
	}
	return &Table{schema: t.schema, cols: cols, nrows: len(rows)}, nil
}

// gatherCodesRef collects the gathered codes unpacked, one row at a
// time, then packs them with freeze.
func (c *stringColumn) gatherCodesRef(rows []int) Column {
	c.dictShared.Store(true)
	out := &stringColumn{dict: c.dict, index: c.index}
	out.dictShared.Store(true)
	out.codes = make([]int32, 0, len(rows))
	if c.frozen {
		for _, r := range rows {
			out.codes = append(out.codes, int32(c.packed.get(r)))
		}
	} else {
		for _, r := range rows {
			out.codes = append(out.codes, c.codes[r])
		}
	}
	out.freeze()
	return out
}
