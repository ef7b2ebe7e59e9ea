//go:build !race

package generalize

import (
	"fmt"
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/table"
)

// TestSuppressAllocsIndependentOfRows pins that suppression allocates
// per call, not per row or per QI-group: SuppressWithin on generalized
// tables of about 1,000 and about 8,000 rows, whose group count grows
// eightfold, allocates the same count, both when nothing is suppressed
// and when a few sub-k groups are. The grouping arena comes from a
// sync.Pool, which the race detector empties at random, so the file
// builds only without -race.
func TestSuppressAllocsIndependentOfRows(t *testing.T) {
	zip, err := hierarchy.NewPrefixSteps("Zip", 5, []int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMasker([]string{"Zip", "Sex"}, hierarchy.MustSet(zip, NewSexFlat()))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int, subK bool) float64 {
		b, err := table.NewBuilder(table.MustSchema(
			table.Field{Name: "Zip", Type: table.String},
			table.Field{Name: "Sex", Type: table.String},
			table.Field{Name: "Illness", Type: table.String},
		))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			b.Append(table.SV(fmt.Sprintf("%05d", r)), table.SV("M"), table.SV(fmt.Sprintf("i%d", r%4)))
		}
		if subK {
			// Two groups below k = 3 at Zip level 1: 9999* F (2 rows)
			// and 8888* F (1 row).
			for _, z := range []string{"99990", "99991", "88880"} {
				b.Append(table.SV(z), table.SV("F"), table.SV("i0"))
			}
		}
		tbl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.NewCache(tbl).Apply(lattice.Node{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		var suppressed int
		n := testing.AllocsPerRun(20, func() {
			if _, suppressed, _, err = m.SuppressWithin(g, 3, g.NumRows()); err != nil {
				t.Fatal(err)
			}
		})
		if want := map[bool]int{false: 0, true: 3}[subK]; suppressed != want {
			t.Fatalf("%d rows: suppressed %d, want %d", rows, suppressed, want)
		}
		return n
	}
	for _, subK := range []bool{false, true} {
		few, many := allocs(1000, subK), allocs(8000, subK)
		t.Logf("sub-k groups %v: %.0f allocations at 1,000 rows, %.0f at 8,000", subK, few, many)
		if few != many {
			t.Errorf("sub-k groups %v: suppression allocations grow with the rows: %.0f at 1,000, %.0f at 8,000", subK, few, many)
		}
	}
}
