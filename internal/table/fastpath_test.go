package table

import (
	"fmt"
	"testing"
)

// mixedTable builds a table whose key columns exercise both group-by
// paths: two dictionary strings and an int (packed uint64 key) plus a
// float (forces the varint byte-key fallback when included).
func mixedTable(t *testing.T, n int) *Table {
	t.Helper()
	sch := MustSchema(
		Field{Name: "A", Type: String},
		Field{Name: "B", Type: String},
		Field{Name: "N", Type: Int},
		Field{Name: "F", Type: Float},
	)
	b, err := NewBuilder(sch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b.Append(
			SV(fmt.Sprintf("a%d", i%7)),
			SV(fmt.Sprintf("b%d", (i*3)%5)),
			IV(int64(i%11-5)), // includes negative values
			FV(float64(i%4)),
		)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// naiveGroups is the reference grouping: first-appearance order keyed on
// rendered values.
func naiveGroups(t *testing.T, tbl *Table, names ...string) []Group {
	t.Helper()
	idx := make(map[string]int)
	var groups []Group
	for r := 0; r < tbl.NumRows(); r++ {
		key := ""
		var kv []Value
		for _, n := range names {
			v, err := tbl.Value(r, n)
			if err != nil {
				t.Fatal(err)
			}
			key += "\x00" + v.Str()
			kv = append(kv, v)
		}
		g, ok := idx[key]
		if !ok {
			g = len(groups)
			idx[key] = g
			groups = append(groups, Group{Key: kv})
		}
		groups[g].Rows = append(groups[g].Rows, r)
	}
	return groups
}

func sameGroups(a, b []Group) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Rows) != len(b[i].Rows) || a[i].KeyString() != b[i].KeyString() {
			return false
		}
		for j := range a[i].Rows {
			if a[i].Rows[j] != b[i].Rows[j] {
				return false
			}
		}
	}
	return true
}

// TestGroupByPackedAndFallbackAgree checks the packed uint64 path
// (string/int keys) and the byte-key fallback (float key present)
// against a naive reference grouping.
func TestGroupByPackedAndFallbackAgree(t *testing.T) {
	tbl := mixedTable(t, 500)
	cases := [][]string{
		{"A"},
		{"A", "B"},
		{"A", "B", "N"}, // packed, negative int codes
		{"A", "F"},      // fallback: float column has no code range
		{"A", "B", "N", "F"},
	}
	for _, names := range cases {
		got, err := tbl.GroupBy(names...)
		if err != nil {
			t.Fatalf("GroupBy(%v): %v", names, err)
		}
		want := naiveGroups(t, tbl, names...)
		if !sameGroups(got, want) {
			t.Errorf("GroupBy(%v): %d groups, want %d (or order/rows differ)", names, len(got), len(want))
		}
		n, err := tbl.NumGroups(names...)
		if err != nil || n != len(want) {
			t.Errorf("NumGroups(%v) = %d, %v; want %d", names, n, err, len(want))
		}
	}
}

func TestWithColumn(t *testing.T) {
	tbl := mixedTable(t, 10)
	col, err := tbl.MappedColumn("A", func(v Value) (string, error) {
		return "x" + v.Str(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := tbl.WithColumn("A", col)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.Value(0, "A")
	if v.Str() != "xa0" {
		t.Errorf("swapped value = %q, want %q", v.Str(), "xa0")
	}
	// Other columns are shared, not copied.
	if out.ColumnAt(1) != tbl.ColumnAt(1) {
		t.Error("unswapped column was copied")
	}
	// The source table is untouched.
	v, _ = tbl.Value(0, "A")
	if v.Str() != "a0" {
		t.Errorf("source mutated: %q", v.Str())
	}

	if _, err := tbl.WithColumn("Missing", col); err == nil {
		t.Error("unknown column accepted")
	}
	short := NewColumn(String)
	if err := short.AppendText("only"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.WithColumn("A", short); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := tbl.WithColumn("A", nil); err == nil {
		t.Error("nil column accepted")
	}
}

// TestMappedColumnMemoizes: fn must run once per distinct value, not
// once per row, and the produced column must match MapColumn's output.
func TestMappedColumnMemoizes(t *testing.T) {
	tbl := mixedTable(t, 100) // column A has 7 distinct values
	calls := 0
	fn := func(v Value) (string, error) { calls++; return v.Str() + "!", nil }
	col, err := tbl.MappedColumn("A", fn)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Errorf("fn called %d times, want 7 (distinct values)", calls)
	}
	viaMap, err := tbl.MapColumn("A", func(v Value) (string, error) { return v.Str() + "!", nil })
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := viaMap.Column("A")
	for i := 0; i < tbl.NumRows(); i++ {
		if col.Value(i).Str() != ref.Value(i).Str() {
			t.Fatalf("row %d: %q != %q", i, col.Value(i).Str(), ref.Value(i).Str())
		}
	}
}

func TestKeyString(t *testing.T) {
	g := Group{Key: []Value{SV("M"), SV("41076"), IV(3)}}
	if got := g.KeyString(); got != "M, 41076, 3" {
		t.Errorf("KeyString = %q", got)
	}
	if got := (Group{}).KeyString(); got != "" {
		t.Errorf("empty KeyString = %q", got)
	}
}
