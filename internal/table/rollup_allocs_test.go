//go:build !race

package table

import (
	"fmt"
	"testing"
)

// TestRollupAllocsIndependentOfSources pins that a roll-up allocates per
// output slab, not per source group or histogram entry: merging eight
// times the source groups into the same handful of targets allocates
// the same count. The arena a roll-up borrows comes from a sync.Pool,
// which the race detector empties at random, so the file builds only
// without -race.
func TestRollupAllocsIndependentOfSources(t *testing.T) {
	allocs := func(sources int) float64 {
		schema := MustSchema(
			Field{Name: "A", Type: String},
			Field{Name: "S1", Type: String},
			Field{Name: "S2", Type: Int},
		)
		b, err := NewBuilder(schema)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2*sources; r++ {
			b.Append(SV(fmt.Sprintf("a%d", r%sources)), SV(fmt.Sprintf("s%d", r%5)), IV(int64(r%7)))
		}
		tbl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := tbl.MapColumn("A", coarsen("A", sources/4))
		if err != nil {
			t.Fatal(err)
		}
		from, _ := tbl.Column("A")
		to, _ := coarse.Column("A")
		m, err := BuildCodeMap(from, to)
		if err != nil {
			t.Fatal(err)
		}
		base, err := tbl.GroupStats([]string{"A"}, []string{"S1", "S2"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if base.NumGroups() != sources {
			t.Fatalf("%d source groups, want %d", base.NumGroups(), sources)
		}
		maps := []*CodeMap{m}
		var rolled *GroupStats
		n := testing.AllocsPerRun(20, func() {
			if rolled, err = base.Rollup(maps); err != nil {
				t.Fatal(err)
			}
		})
		if rolled.NumGroups() != 4 {
			t.Fatalf("%d targets, want 4", rolled.NumGroups())
		}
		return n
	}
	few, many := allocs(1000), allocs(8000)
	t.Logf("allocations of a roll-up into 4 targets: %.0f from 1,000 source groups, %.0f from 8,000", few, many)
	if few != many {
		t.Errorf("roll-up allocations grow with the source groups: %.0f from 1,000, %.0f from 8,000", few, many)
	}
}
