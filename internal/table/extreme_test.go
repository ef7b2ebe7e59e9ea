package table

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// These tests pin the unsigned-span arithmetic in intDict and
// packedPlan: int columns holding values near the edges of the int64
// domain used to wrap the signed span computation (MinInt64..MaxInt64
// wraps to 0, ±2^62 wraps negative), slipping past the dense-structure
// caps and panicking instead of falling back to the map paths.

// TestIntDictExtremeSpans: the dictionary must take the map path for
// any span that exceeds (or wraps past) intDictMaxSpan and still rank
// values in ascending order.
func TestIntDictExtremeSpans(t *testing.T) {
	cases := []struct {
		name  string
		vals  []int64
		dense bool
	}{
		{"full-domain", []int64{math.MinInt64, 0, math.MaxInt64, math.MinInt64}, false},
		{"wrap-negative", []int64{-(1 << 62), 1 << 62, 0, 1 << 62}, false},
		{"over-cap", []int64{0, intDictMaxSpan}, false},
		{"narrow", []int64{-3, 5, -3, 4}, true},
		{"narrow-negative", []int64{math.MinInt64, math.MinInt64 + 7}, true},
	}
	for _, tc := range cases {
		c := &intColumn{vals: tc.vals}
		d := c.intDict()
		if (d.dense != nil) != tc.dense {
			t.Errorf("%s: dense lookup = %v, want %v", tc.name, d.dense != nil, tc.dense)
			continue
		}
		set := map[int64]bool{}
		for _, v := range tc.vals {
			set[v] = true
		}
		want := make([]int64, 0, len(set))
		for v := range set {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(d.vals, want) {
			t.Errorf("%s: dict vals = %v, want %v", tc.name, d.vals, want)
		}
		for rank, v := range want {
			if got := d.id(v); got != int32(rank) {
				t.Errorf("%s: id(%d) = %d, want rank %d", tc.name, v, got, rank)
			}
		}
	}
}

// extremeIntMicrodata builds a small table whose int column spans the
// full int64 domain, with known QI-group structure.
func extremeIntMicrodata(t *testing.T) *Table {
	t.Helper()
	schema := MustSchema(Field{Name: "A", Type: String}, Field{Name: "B", Type: Int})
	b, err := NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		a string
		b int64
	}{
		{"x", math.MinInt64},
		{"x", math.MaxInt64},
		{"x", math.MinInt64},
		{"y", 0},
		{"x", math.MaxInt64},
	}
	for _, r := range rows {
		b.Append(SV(r.a), IV(r.b))
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestGroupStatsExtremeIntConf: GroupStats with a full-domain int
// confidential column must match the row-at-a-time reference instead of
// panicking in the scan's dense-id projection.
func TestGroupStatsExtremeIntConf(t *testing.T) {
	tbl := extremeIntMicrodata(t)
	want, err := tbl.groupStatsRef([]string{"A"}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := tbl.GroupStats([]string{"A"}, []string{"B"}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: GroupStats and the reference disagree on extreme int conf", workers)
		}
	}
}

// TestRemappedColumnExtremeInt: the code-remapping fast path must
// handle a full-domain int source column (its dictionary takes the map
// lookup) and agree with MapColumn row-for-row.
func TestRemappedColumnExtremeInt(t *testing.T) {
	tbl := extremeIntMicrodata(t)
	fn := func(v Value) (string, error) { return "g:" + v.Str(), nil }
	mapped := mappedRef(t, tbl, "B", fn)
	remapped, err := remappedColumn(tbl, "B", fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.NumRows(); i++ {
		if !mapped.Value(i).Equal(remapped.Value(i)) {
			t.Fatalf("row %d: %v != %v", i, mapped.Value(i), remapped.Value(i))
		}
	}
}

// TestGroupByExtremeIntKey: a full-domain int key column must fall back
// to byte-string keys (the wrapped span poisoned the packed plan's
// stride: alone it indexed an empty key table, combined it divided by
// zero) and still group correctly.
func TestGroupByExtremeIntKey(t *testing.T) {
	tbl := extremeIntMicrodata(t)
	check := func(name string, groups []Group, want [][]int) {
		t.Helper()
		if len(groups) != len(want) {
			t.Fatalf("%s: %d groups, want %d", name, len(groups), len(want))
		}
		for i, g := range groups {
			if !reflect.DeepEqual(g.Rows, want[i]) {
				t.Fatalf("%s: group %d rows = %v, want %v", name, i, g.Rows, want[i])
			}
		}
	}
	gb, err := tbl.GroupBy("B")
	if err != nil {
		t.Fatal(err)
	}
	check("B", gb, [][]int{{0, 2}, {1, 4}, {3}})
	gba, err := tbl.GroupBy("B", "A")
	if err != nil {
		t.Fatal(err)
	}
	check("B,A", gba, [][]int{{0, 2}, {1, 4}, {3}})
	n, err := tbl.NumGroups("B", "A")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("NumGroups = %d, want 3", n)
	}
}

// TestPackedKeysAboveInt63: a key space that fits a uint64 but not an
// int64 keeps the packed plan (map path, keys up to ~2^63+2^40). Such
// keys used to turn negative when the arena cleared its flat key table
// on release, panicking with an out-of-range index; every path must
// instead agree with the row-at-a-time reference and the varint GroupBy.
func TestPackedKeysAboveInt63(t *testing.T) {
	schema := MustSchema(Field{Name: "A", Type: Int}, Field{Name: "B", Type: Int}, Field{Name: "S", Type: String})
	b, err := NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	b.Append(IV(0), IV(0), SV("x"))
	b.Append(IV(1<<40), IV(1<<23), SV("y"))
	b.Append(IV(1<<40), IV(1<<23), SV("x"))
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cols := []Column{tbl.ColumnAt(0), tbl.ColumnAt(1)}
	plan, ok := packedPlan(cols)
	if !ok || plan.pack([]int{cols[0].Code(1), cols[1].Code(1)}) < 1<<63 {
		t.Fatalf("fixture no longer packs a key above 2^63 (plan ok=%v)", ok)
	}
	want, err := tbl.groupStatsRef([]string{"A", "B"}, []string{"S"})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		got, err := tbl.GroupStats([]string{"A", "B"}, []string{"S"}, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: GroupStats and the reference disagree", w)
		}
	}
	groups, err := tbl.GroupBy("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || !reflect.DeepEqual(groups[1].Rows, []int{1, 2}) {
		t.Fatalf("GroupBy = %+v", groups)
	}
}
