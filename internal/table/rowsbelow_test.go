package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rowsBelowBs are the two values of rowsBelowTable's B column, narrow
// and wide.
var rowsBelowBs = map[bool][2]int64{false: {0, 1}, true: {math.MinInt64 + 3, math.MaxInt64 - 3}}

// rowsBelowTable builds a table whose key columns A (String) and B (Int)
// form 23 groups of 1 to 4 rows, shuffled: group g is ("a" g/2, B's
// value g%2), so a11 pairs with the first B value only. With wide set,
// B's values span more than 2^63, so the key does not pack into 64 bits
// and RowsBelow takes the varint path.
func rowsBelowTable(t *testing.T, wide bool) *Table {
	t.Helper()
	b, err := NewBuilder(MustSchema(Field{Name: "A", Type: String}, Field{Name: "B", Type: Int}))
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for g := 0; g < 23; g++ {
		for i := 0; i <= g%4; i++ {
			ids = append(ids, g)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, g := range ids {
		b.Append(SV(fmt.Sprintf("a%d", g/2)), IV(rowsBelowBs[wide][g%2]))
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, packed := packedPlan(tbl.cols); packed == wide {
		t.Fatalf("wide=%v: packed plan %v", wide, packed)
	}
	return tbl
}

// TestRowsBelow: the size-only pass counts the rows of sub-k groups and
// lists them, ascending, as the naive reference grouping does, on
// packed and on varint keys; past the limit it lists nothing.
func TestRowsBelow(t *testing.T) {
	for _, wide := range []bool{false, true} {
		tbl := rowsBelowTable(t, wide)
		groups := naiveGroups(t, tbl, "A", "B")
		stats, err := tbl.GroupStats([]string{"A", "B"}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 5; k++ {
			var want []int
			for _, g := range groups {
				if g.Size() < k {
					want = append(want, g.Rows...)
				}
			}
			slices.Sort(want)
			for _, s := range []*GroupStats{nil, stats} {
				rows, below, err := tbl.RowsBelow([]string{"A", "B"}, k, tbl.NumRows(), s)
				if err != nil {
					t.Fatalf("wide=%v k=%d: %v", wide, k, err)
				}
				if below != len(want) || !slices.Equal(rows, want) {
					t.Fatalf("wide=%v k=%d: rows %v (%d below), want %v", wide, k, rows, below, want)
				}
				if len(want) > 0 {
					rows, below, err = tbl.RowsBelow([]string{"A", "B"}, k, len(want)-1, s)
					if err != nil || rows != nil || below != len(want) {
						t.Fatalf("wide=%v k=%d past the limit: rows %v below %d err %v", wide, k, rows, below, err)
					}
				}
			}
		}
	}
}

// TestRowsBelowChecksStatistics pins the exact check suppression makes
// against a node's statistics: on packed and on varint keys, statistics
// with one group's size off by one, a group missing, a group the rows do
// not hold, or a code outside the rows' range are ErrStatsMismatch
// errors, whether or not the difference moves the sub-k count, and
// nothing is listed.
func TestRowsBelowChecksStatistics(t *testing.T) {
	for _, wide := range []bool{false, true} {
		tbl := rowsBelowTable(t, wide)
		good, err := tbl.GroupStats([]string{"A", "B"}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := tbl.Column("A")
		_, hiA, _ := a.(codeRanger).CodeRange()
		a11 := int(a.(*stringColumn).index["a11"])
		corrupt := map[string]func(s *GroupStats){
			"size off by one": func(s *GroupStats) { s.Groups[3].Size++ },
			"missing group":   func(s *GroupStats) { s.Groups = slices.Delete(s.Groups, 5, 6) },
			"group not held": func(s *GroupStats) {
				s.Groups[0].Codes = []int{a11, int(rowsBelowBs[wide][1])}
			},
			"code out of range": func(s *GroupStats) {
				s.Groups[2].Codes = []int{hiA + 1, s.Groups[2].Codes[1]}
			},
		}
		for name, fn := range corrupt {
			bad := *good
			bad.Groups = slices.Clone(good.Groups)
			fn(&bad)
			for _, k := range []int{1, 3} {
				rows, below, err := tbl.RowsBelow([]string{"A", "B"}, k, tbl.NumRows(), &bad)
				if !errors.Is(err, ErrStatsMismatch) || rows != nil || below != 0 {
					t.Errorf("wide=%v %s k=%d: rows %v below %d err %v, want ErrStatsMismatch", wide, name, k, rows, below, err)
				}
			}
		}
	}
}
