//go:build !race

package table

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// unpackedKey is row r's value of an Int key that spans all of int64,
// so keys over it never pack into 64 bits and take the byte-key path:
// rows 0 and 1 hold MinInt64 and MaxInt64, every other row r mod
// groups.
func unpackedKey(r, groups int) int64 {
	switch r {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	}
	return int64(r % groups)
}

// TestRollupAllocsIndependentOfSources pins that a roll-up allocates per
// output slab, not per source group or histogram entry: merging eight
// times the source groups into the same handful of targets allocates
// the same count. So does a roll-up whose keys do not pack, keyed also
// on unpackedKey, with eight times the targets. The arena a roll-up or
// a scan borrows comes from a sync.Pool, which the race detector
// empties at random, so the file builds only without -race.
func TestRollupAllocsIndependentOfSources(t *testing.T) {
	allocs := func(sources int, unpacked bool) float64 {
		schema := MustSchema(
			Field{Name: "A", Type: String},
			Field{Name: "Q", Type: Int},
			Field{Name: "S1", Type: String},
			Field{Name: "S2", Type: Int},
		)
		b, err := NewBuilder(schema)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2*sources; r++ {
			b.Append(SV(fmt.Sprintf("a%d", r%sources)), IV(unpackedKey(r, sources)), SV(fmt.Sprintf("s%d", r%5)), IV(int64(r%7)))
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
		keys, maps, groups, targets := []string{"A"}, []*CodeMap{m}, sources, 4
		if unpacked {
			q, _ := tbl.Column("Q")
			same, err := BuildCodeMap(q, q)
			if err != nil {
				t.Fatal(err)
			}
			keys, maps = append(keys, "Q"), append(maps, same)
			groups, targets = sources+2, sources+2
		}
		base, err := tbl.GroupStats(keys, []string{"S1", "S2"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if base.NumGroups() != groups {
			t.Fatalf("%d source groups, want %d", base.NumGroups(), groups)
		}
		var rolled *GroupStats
		n := testing.AllocsPerRun(20, func() {
			if rolled, err = base.Rollup(maps); err != nil {
				t.Fatal(err)
			}
		})
		if rolled.NumGroups() != targets {
			t.Fatalf("%d targets, want %d", rolled.NumGroups(), targets)
		}
		return n
	}
	few, many := allocs(1000, false), allocs(8000, false)
	t.Logf("allocations of a roll-up into 4 targets: %.0f from 1,000 source groups, %.0f from 8,000", few, many)
	if few != many {
		t.Errorf("roll-up allocations grow with the source groups: %.0f from 1,000, %.0f from 8,000", few, many)
	}
	few, many = allocs(500, true), allocs(4000, true)
	t.Logf("allocations of a roll-up over unpacked keys: %.0f for 500 groups, %.0f for 4,000", few, many)
	if few != many {
		t.Errorf("unpacked roll-up allocations grow with the groups: %.0f for 500, %.0f for 4,000", few, many)
	}
}

// TestGroupStatsAllocsIndependentOfRows pins that the statistics scan
// allocates per output slab, not per group or histogram: eight times
// the rows in eight times the groups, over a confidential dictionary
// eight times as wide, allocates the same count, and so does a scan
// over an unpacked key (unpackedKey) in 500 and in 4,000 groups.
func TestGroupStatsAllocsIndependentOfRows(t *testing.T) {
	allocs := func(rows int) float64 {
		tbl := wideStatsTable(t, rows, rows/2, rows)
		var s *GroupStats
		var err error
		n := testing.AllocsPerRun(20, func() {
			if s, err = tbl.GroupStats([]string{"Q"}, []string{"S"}, 1); err != nil {
				t.Fatal(err)
			}
		})
		if s.NumGroups() != rows/2 {
			t.Fatalf("%d groups, want %d", s.NumGroups(), rows/2)
		}
		return n
	}
	few, many := allocs(1000), allocs(8000)
	t.Logf("allocations of a statistics scan: %.0f over 1,000 rows, %.0f over 8,000", few, many)
	if few != many {
		t.Errorf("scan allocations grow with the rows: %.0f over 1,000, %.0f over 8,000", few, many)
	}

	unpacked := func(groups int) float64 {
		b, err := NewBuilder(MustSchema(Field{Name: "Q", Type: Int}, Field{Name: "S", Type: Int}))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2*groups; r++ {
			b.Append(IV(unpackedKey(r, groups)), IV(int64(r*7919%groups)))
		}
		tbl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var s *GroupStats
		n := testing.AllocsPerRun(20, func() {
			if s, err = tbl.GroupStats([]string{"Q"}, []string{"S"}, 1); err != nil {
				t.Fatal(err)
			}
		})
		if s.NumGroups() != groups+2 {
			t.Fatalf("%d groups, want %d", s.NumGroups(), groups+2)
		}
		return n
	}
	few, many = unpacked(500), unpacked(4000)
	t.Logf("allocations of a statistics scan over an unpacked key: %.0f for 500 groups, %.0f for 4,000", few, many)
	if few != many {
		t.Errorf("unpacked scan allocations grow with the groups: %.0f for 500, %.0f for 4,000", few, many)
	}
}

// TestGroupStatsBytesBoundedByRows pins the scan's memory to its rows
// and dictionaries: 8,000 rows in 4,000 groups over an 8,000-value
// confidential attribute, scanned with a fresh arena, allocate a few
// MiB. A per-group histogram slab would take 4,000 × 8,000 counters,
// 122 MiB before it grows.
func TestGroupStatsBytesBoundedByRows(t *testing.T) {
	const limit = 8 << 20
	tbl := wideStatsTable(t, 8000, 4000, 8000)
	// Two collections empty the arena pool, so the call pays for its
	// scratch as a fresh process would.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := tbl.GroupStats([]string{"Q"}, []string{"S"}, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumGroups() != 4000 {
		t.Fatalf("%d groups, want 4000", s.NumGroups())
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("one statistics scan of 8,000 rows in 4,000 groups allocated %.2f MiB", float64(bytes)/(1<<20))
	if bytes > limit {
		t.Errorf("one statistics scan allocated %.1f MiB, bound %d MiB", float64(bytes)/(1<<20), limit>>20)
	}
}
