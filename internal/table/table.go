package table

import (
	"fmt"
	"strings"
)

// Table is an immutable columnar relation: a schema plus one column per
// field, all of equal length. Build one with a Builder, FromRows or
// ReadCSV; derive new tables with Select, Filter, Gather and friends.
type Table struct {
	schema Schema
	cols   []Column
	nrows  int
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// Column returns the column with the given name.
func (t *Table) Column(name string) (Column, error) {
	i := t.schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("table: %w: %q", ErrNoColumn, name)
	}
	return t.cols[i], nil
}

// ColumnAt returns the i-th column.
func (t *Table) ColumnAt(i int) Column { return t.cols[i] }

// Value returns the cell at (row, named column).
func (t *Table) Value(row int, name string) (Value, error) {
	if row < 0 || row >= t.nrows {
		return Value{}, fmt.Errorf("table: %w: %d", ErrRowRange, row)
	}
	c, err := t.Column(name)
	if err != nil {
		return Value{}, err
	}
	return c.Value(row), nil
}

// Row materializes row i as a slice of values in schema order.
func (t *Table) Row(i int) ([]Value, error) {
	if i < 0 || i >= t.nrows {
		return nil, fmt.Errorf("table: %w: %d", ErrRowRange, i)
	}
	row := make([]Value, len(t.cols))
	for c, col := range t.cols {
		row[c] = col.Value(i)
	}
	return row, nil
}

// Select returns a new table containing only the named columns, in the
// given order. Column data is shared, not copied.
func (t *Table) Select(names ...string) (*Table, error) {
	schema, err := t.schema.Project(names)
	if err != nil {
		return nil, err
	}
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		c, err := t.Column(n)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return &Table{schema: schema, cols: cols, nrows: t.nrows}, nil
}

// Gather returns a new table holding the given rows, in order. Row
// indices may repeat. String columns copy an ascending run of rows in
// bulk, so gathering a table minus a few rows costs about a copy, and
// a permutation costs no more than gathering row by row.
func (t *Table) Gather(rows []int) (*Table, error) {
	for _, r := range rows {
		if r < 0 || r >= t.nrows {
			return nil, fmt.Errorf("table: %w: %d", ErrRowRange, r)
		}
	}
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.Gather(rows)
	}
	return &Table{schema: t.schema, cols: cols, nrows: len(rows)}, nil
}

// Filter returns the rows for which pred returns true, as a new table.
// The predicate receives the row index and the table.
func (t *Table) Filter(pred func(row int) bool) *Table {
	var keep []int
	for i := 0; i < t.nrows; i++ {
		if pred(i) {
			keep = append(keep, i)
		}
	}
	out, err := t.Gather(keep)
	if err != nil {
		// Unreachable: indices come from the loop above.
		panic(err)
	}
	return out
}

// Head returns a table with at most the first n rows.
func (t *Table) Head(n int) *Table {
	if n > t.nrows {
		n = t.nrows
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	out, _ := t.Gather(rows)
	return out
}

// Clone performs a deep copy of the table.
func (t *Table) Clone() *Table {
	rows := make([]int, t.nrows)
	for i := range rows {
		rows[i] = i
	}
	out, _ := t.Gather(rows)
	return out
}

// MapColumn returns a new table in which the named column has been
// replaced by applying fn to every value, row by row. The result column
// is always a string column (generalization produces categorical
// labels). fn may depend on call order (several callers close over a row
// counter); use Remap and Remap.Column when fn is a pure function of the
// value and once-per-distinct-value application is wanted.
func (t *Table) MapColumn(name string, fn func(Value) (string, error)) (*Table, error) {
	idx := t.schema.Index(name)
	if idx < 0 {
		return nil, fmt.Errorf("table: %w: %q", ErrNoColumn, name)
	}
	src := t.cols[idx]
	dst := newStringColumn()
	for i := 0; i < t.nrows; i++ {
		s, err := fn(src.Value(i))
		if err != nil {
			return nil, fmt.Errorf("table: map column %q row %d: %w", name, i, err)
		}
		dst.append(s)
	}
	dst.freeze()
	return t.WithColumn(name, dst)
}

// WithColumn returns a new table in which the named column has been
// replaced by col; every other column is shared, not copied. The column
// must have exactly one value per row. This is the cheap assembly step
// the per-level generalized-column cache uses to build a node's masked
// table from memoized columns.
func (t *Table) WithColumn(name string, col Column) (*Table, error) {
	idx := t.schema.Index(name)
	if idx < 0 {
		return nil, fmt.Errorf("table: %w: %q", ErrNoColumn, name)
	}
	if col == nil {
		return nil, fmt.Errorf("table: nil replacement for column %q", name)
	}
	if col.Len() != t.nrows {
		return nil, fmt.Errorf("table: replacement for column %q has %d rows, want %d", name, col.Len(), t.nrows)
	}
	cols := make([]Column, len(t.cols))
	copy(cols, t.cols)
	cols[idx] = col
	fields := make([]Field, len(t.schema.Fields))
	copy(fields, t.schema.Fields)
	fields[idx].Type = col.Type()
	return &Table{schema: Schema{Fields: fields}, cols: cols, nrows: t.nrows}, nil
}

// String renders up to 20 rows as an aligned text table (for debugging
// and examples).
func (t *Table) String() string { return t.Format(20) }

// Format renders up to maxRows rows as an aligned text table.
func (t *Table) Format(maxRows int) string {
	names := t.schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	n := t.nrows
	truncated := false
	if maxRows >= 0 && n > maxRows {
		n = maxRows
		truncated = true
	}
	cells := make([][]string, n)
	for r := 0; r < n; r++ {
		cells[r] = make([]string, len(t.cols))
		for c, col := range t.cols {
			s := col.Value(r).Str()
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var b strings.Builder
	writeLine := func(row []string) {
		var line strings.Builder
		for c, cell := range row {
			if c > 0 {
				line.WriteString("  ")
			}
			fmt.Fprintf(&line, "%-*s", widths[c], cell)
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	writeLine(names)
	for r := 0; r < n; r++ {
		writeLine(cells[r])
	}
	if truncated {
		fmt.Fprintf(&b, "... (%d rows total)\n", t.nrows)
	}
	return b.String()
}
