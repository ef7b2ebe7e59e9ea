package table

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomTable is a quick.Generator-friendly microdata table with two
// string columns and one int column.
type randomTable struct {
	tbl *Table
}

func (randomTable) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size + 1)
	sch := MustSchema(
		Field{Name: "A", Type: String},
		Field{Name: "B", Type: String},
		Field{Name: "N", Type: Int},
	)
	b, _ := NewBuilder(sch)
	letters := []string{"x", "y", "z", "w"}
	for i := 0; i < n; i++ {
		b.Append(
			SV(letters[r.Intn(len(letters))]),
			SV(letters[r.Intn(len(letters))]),
			IV(int64(r.Intn(5))),
		)
	}
	t, _ := b.Build()
	return reflect.ValueOf(randomTable{tbl: t})
}

// Property: group sizes from GroupBy always sum to the number of rows,
// and every row appears in exactly one group.
func TestGroupByPartitionProperty(t *testing.T) {
	f := func(rt randomTable) bool {
		if rt.tbl.NumRows() == 0 {
			return true
		}
		groups, err := rt.tbl.GroupBy("A", "B")
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		total := 0
		for _, g := range groups {
			total += g.Size()
			for _, r := range g.Rows {
				if seen[r] {
					return false // row in two groups
				}
				seen[r] = true
			}
		}
		return total == rt.tbl.NumRows()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NumGroups equals len(GroupBy) for any column subset.
func TestNumGroupsMatchesGroupBy(t *testing.T) {
	f := func(rt randomTable) bool {
		if rt.tbl.NumRows() == 0 {
			return true
		}
		for _, cols := range [][]string{{"A"}, {"B"}, {"A", "B"}, {"A", "B", "N"}} {
			groups, err := rt.tbl.GroupBy(cols...)
			if err != nil {
				return false
			}
			n, err := rt.tbl.NumGroups(cols...)
			if err != nil || n != len(groups) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: within a group, all key column values equal the group key.
func TestGroupByKeyConsistency(t *testing.T) {
	f := func(rt randomTable) bool {
		groups, err := rt.tbl.GroupBy("A", "B")
		if rt.tbl.NumRows() == 0 {
			return true
		}
		if err != nil {
			return false
		}
		for _, g := range groups {
			for _, r := range g.Rows {
				a, _ := rt.tbl.Value(r, "A")
				b, _ := rt.tbl.Value(r, "B")
				if !a.Equal(g.Key[0]) || !b.Equal(g.Key[1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ValueCounts counts sum to row count and are descending.
func TestValueCountsProperty(t *testing.T) {
	f := func(rt randomTable) bool {
		vc, err := rt.tbl.ValueCounts("A")
		if err != nil {
			return false
		}
		sum := 0
		for i, c := range vc {
			sum += c.Count
			if i > 0 && c.Count > vc[i-1].Count {
				return false
			}
		}
		return sum == rt.tbl.NumRows()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DistinctCount(A) == len(ValueCounts(A)).
func TestDistinctCountMatchesValueCounts(t *testing.T) {
	f := func(rt randomTable) bool {
		vc, err1 := rt.tbl.ValueCounts("A")
		n, err2 := rt.tbl.DistinctCount("A")
		return err1 == nil && err2 == nil && n == len(vc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Gather preserves values; Sample is a subset of rows.
func TestSampleSubsetProperty(t *testing.T) {
	f := func(rt randomTable, seed int64) bool {
		n := rt.tbl.NumRows() / 2
		s, err := rt.tbl.Sample(n, seed)
		if err != nil || s.NumRows() != n {
			return false
		}
		// Every sampled row must exist in the original (multiset check on
		// serialized rows).
		counts := make(map[string]int)
		for r := 0; r < rt.tbl.NumRows(); r++ {
			row, _ := rt.tbl.Row(r)
			counts[rowKey(row)]++
		}
		for r := 0; r < s.NumRows(); r++ {
			row, _ := s.Row(r)
			k := rowKey(row)
			counts[k]--
			if counts[k] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func rowKey(row []Value) string {
	s := ""
	for _, v := range row {
		s += v.Str() + "\x00"
	}
	return s
}
