package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomMicrodata builds an n-row table with three categorical QI
// columns of bounded cardinality and two confidential columns (one
// categorical, one integer), the shape the roll-up layer sees.
func randomMicrodata(t testing.TB, rng *rand.Rand, n int) *Table {
	t.Helper()
	schema := MustSchema(
		Field{Name: "A", Type: String},
		Field{Name: "B", Type: String},
		Field{Name: "C", Type: String},
		Field{Name: "S1", Type: String},
		Field{Name: "S2", Type: Int},
	)
	b, err := NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b.Append(
			SV(fmt.Sprintf("a%d", rng.Intn(8))),
			SV(fmt.Sprintf("b%d", rng.Intn(6))),
			SV(fmt.Sprintf("c%d", rng.Intn(4))),
			SV(fmt.Sprintf("s%d", rng.Intn(5))),
			IV(int64(rng.Intn(7)-3)),
		)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// coarsen simulates one hierarchy step: values collapse into buckets of
// the given fanout (a nested coarsening, as DGH levels are).
func coarsen(attr string, fanout int) func(Value) (string, error) {
	return func(v Value) (string, error) {
		var k int
		fmt.Sscanf(v.Str()[1:], "%d", &k)
		return fmt.Sprintf("%s_l%d_%d", attr, fanout, k/fanout), nil
	}
}

// statsFromGroupBy derives the expected GroupStats from the reference
// GroupBy path, row lists and all.
func statsFromGroupBy(t testing.TB, tbl *Table, qis, conf []string) *GroupStats {
	t.Helper()
	groups, err := tbl.GroupBy(qis...)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]Column, len(qis))
	for i, n := range qis {
		cols[i], err = tbl.Column(n)
		if err != nil {
			t.Fatal(err)
		}
	}
	confCols := make([]Column, len(conf))
	for i, n := range conf {
		confCols[i], err = tbl.Column(n)
		if err != nil {
			t.Fatal(err)
		}
	}
	out := &GroupStats{NumRows: tbl.NumRows(), NumQI: len(qis), NumConf: len(conf)}
	for _, g := range groups {
		gs := GroupStat{Size: g.Size(), Codes: make([]int, len(cols)), Rep: g.Rows[0], Hists: make([]CodeHist, len(conf))}
		for i, c := range cols {
			gs.Codes[i] = c.Code(g.Rows[0])
		}
		for a, c := range confCols {
			counts := map[int]int{}
			for _, r := range g.Rows {
				counts[c.Code(r)]++
			}
			h := make(CodeHist, 0, len(counts))
			for code, count := range counts {
				h = append(h, CodeCount{Code: code, Count: count})
			}
			for i := 1; i < len(h); i++ {
				for j := i; j > 0 && h[j].Code < h[j-1].Code; j-- {
					h[j], h[j-1] = h[j-1], h[j]
				}
			}
			gs.Hists[a] = h
		}
		out.Groups = append(out.Groups, gs)
	}
	return out
}

// TestGroupStatsMatchesGroupBy: the sharded stats builder must agree
// with the reference GroupBy at every worker count, including group
// order.
func TestGroupStatsMatchesGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qis := []string{"A", "B", "C"}
	conf := []string{"S1", "S2"}
	for _, n := range []int{0, 1, 7, 100, 503} {
		tbl := randomMicrodata(t, rng, n)
		want := statsFromGroupBy(t, tbl, qis, conf)
		for _, w := range []int{1, 2, 3, 8} {
			got, err := tbl.GroupStats(qis, conf, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d workers=%d: stats diverge from GroupBy\ngot:  %+v\nwant: %+v", n, w, got, want)
			}
		}
	}
	// No key columns is an error; unknown columns are errors.
	tbl := randomMicrodata(t, rng, 5)
	if _, err := tbl.GroupStats(nil, nil, 1); err == nil {
		t.Error("no key columns accepted")
	}
	if _, err := tbl.GroupStats([]string{"nope"}, nil, 1); err == nil {
		t.Error("unknown key column accepted")
	}
	if _, err := tbl.GroupStats(qis, []string{"nope"}, 1); err == nil {
		t.Error("unknown confidential column accepted")
	}
}

// TestRollupMatchesDirect is the roll-up property test: for randomized
// tables and randomized nested generalization levels, rolling base
// stats up through code maps must be byte-identical — groups, order,
// sizes, histograms, and derived verdict quantities — to building the
// stats directly on the generalized table. Multi-worker builds run the
// sharded path under -race. A nil conf is the k-only statistics every
// P <= 1 search builds.
func TestRollupMatchesDirect(t *testing.T) {
	qis := []string{"A", "B", "C"}
	for _, conf := range [][]string{{"S1", "S2"}, nil} {
		rollupMatchesDirect(t, qis, conf)
	}
}

func rollupMatchesDirect(t *testing.T, qis, conf []string) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := randomMicrodata(t, rng, 60+rng.Intn(300))

		// Random per-attribute fanouts play the role of hierarchy levels:
		// levels[0] is the base; levels[lvl] coarsens base values into
		// buckets of fanout*lvl (floor division nests, like DGH levels).
		levels := []*Table{tbl}
		fanouts := []int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
		for lvl := 1; lvl <= 2; lvl++ {
			next := tbl
			var err error
			for i, attr := range qis {
				next, err = next.MapColumn(attr, coarsen(attr, fanouts[i]*lvl))
				if err != nil {
					t.Fatal(err)
				}
			}
			levels = append(levels, next)
		}

		base, err := tbl.GroupStats(qis, conf, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		for lvl := 1; lvl < len(levels); lvl++ {
			maps := make([]*CodeMap, len(qis))
			for i, attr := range qis {
				fromCol, err := tbl.Column(attr)
				if err != nil {
					t.Fatal(err)
				}
				toCol, err := levels[lvl].Column(attr)
				if err != nil {
					t.Fatal(err)
				}
				maps[i], err = BuildCodeMap(fromCol, toCol)
				if err != nil {
					t.Fatal(err)
				}
			}
			rolled, err := base.Rollup(maps)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := levels[lvl].GroupStats(qis, conf, 1+rng.Intn(4))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rolled, direct) {
				t.Fatalf("conf %v seed %d level %d: rolled stats diverge\nrolled: %+v\ndirect: %+v", conf, seed, lvl, rolled, direct)
			}
			// Derived verdict quantities agree too (suppression at a few k).
			for _, k := range []int{2, 3, 5} {
				if rolled.TuplesBelow(k) != direct.TuplesBelow(k) {
					t.Errorf("seed %d level %d k=%d: TuplesBelow diverges", seed, lvl, k)
				}
				rs, ds := rolled.SuppressBelow(k), direct.SuppressBelow(k)
				if !reflect.DeepEqual(rs, ds) {
					t.Errorf("seed %d level %d k=%d: SuppressBelow diverges", seed, lvl, k)
				}
			}
			if rolled.MinGroupSize() != direct.MinGroupSize() {
				t.Errorf("seed %d level %d: MinGroupSize diverges", seed, lvl)
			}
		}
	}
}

// TestRollupIdentity: rolling up through all-nil (identity) maps must
// reproduce the stats unchanged; mismatched map counts are rejected.
func TestRollupIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := randomMicrodata(t, rng, 80)
	base, err := tbl.GroupStats([]string{"A", "B"}, []string{"S1"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	same, err := base.Rollup([]*CodeMap{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same, base) {
		t.Error("identity rollup changed the stats")
	}
	if _, err := base.Rollup([]*CodeMap{nil}); err == nil {
		t.Error("short map vector accepted")
	}
}

// TestBuildCodeMap covers the translation contract and its error cases.
func TestBuildCodeMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := randomMicrodata(t, rng, 120)
	gen, err := tbl.MapColumn("A", coarsen("A", 3))
	if err != nil {
		t.Fatal(err)
	}
	from, _ := tbl.Column("A")
	to, _ := gen.Column("A")
	m, err := BuildCodeMap(from, to)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.NumRows(); r++ {
		got, ok := m.Map(from.Code(r))
		if !ok || got != to.Code(r) {
			t.Fatalf("row %d: Map(%d) = %d,%v want %d", r, from.Code(r), got, ok, to.Code(r))
		}
	}
	if m.Len() == 0 {
		t.Error("empty map for populated column")
	}
	if _, ok := m.Map(1 << 30); ok {
		t.Error("unseen code reported as mapped")
	}
	// Identity nil map.
	var id *CodeMap
	if got, ok := id.Map(42); !ok || got != 42 {
		t.Errorf("nil map: Map(42) = %d,%v", got, ok)
	}
	if id.Len() != 0 {
		t.Error("nil map has nonzero length")
	}
	// Row-count mismatch.
	short := tbl.Head(10)
	shortCol, _ := short.Column("A")
	if _, err := BuildCodeMap(from, shortCol); err == nil {
		t.Error("row-count mismatch accepted")
	}
	// Non-functional relation: map a column onto an unrelated one.
	other, _ := tbl.Column("S1")
	if _, err := BuildCodeMap(other, from); err == nil {
		t.Error("non-functional relation accepted")
	}
	if _, err := BuildCodeMap(nil, from); err == nil {
		t.Error("nil column accepted")
	}
}

// TestCodeHistHelpers pins the small histogram accessors.
func TestCodeHistHelpers(t *testing.T) {
	h := CodeHist{{Code: 1, Count: 3}, {Code: 4, Count: 1}, {Code: 9, Count: 2}}
	if h.Distinct() != 3 || h.Total() != 6 || h.MaxCount() != 3 {
		t.Errorf("distinct/total/max = %d/%d/%d", h.Distinct(), h.Total(), h.MaxCount())
	}
	var empty CodeHist
	if empty.Distinct() != 0 || empty.Total() != 0 || empty.MaxCount() != 0 {
		t.Error("empty histogram accessors nonzero")
	}
}

// totalsRef is Totals the row-at-a-time way: the histograms of the one
// group that a key of no columns puts every row in.
func totalsRef(t testing.TB, tbl *Table, conf []string) []CodeHist {
	t.Helper()
	s, err := tbl.groupStatsRef(nil, conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Groups) == 0 {
		return make([]CodeHist, len(conf))
	}
	return s.Groups[0].Hists
}

// TestGroupStatsTotals: the whole-table histograms summed from group
// statistics must equal a row-at-a-time count on every path — no group,
// one group, the merge's dense accumulator and its wide fallback — and
// must be the caller's own.
func TestGroupStatsTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	conf := []string{"S1", "S2"}
	for _, n := range []int{0, 1, 7, 503} {
		tbl := randomMicrodata(t, rng, n)
		for _, qis := range [][]string{{"A", "B", "C"}, {"A"}} {
			stats, err := tbl.GroupStats(qis, conf, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, want := stats.Totals(), totalsRef(t, tbl, conf)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("n=%d key %v: Totals = %v, want %v", n, qis, got, want)
			}
		}
	}

	// An Int attribute spread wider than a dense accumulator sums
	// through the map.
	sch := MustSchema(Field{Name: "Q", Type: String}, Field{Name: "W", Type: Int})
	b, err := NewBuilder(sch)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []int64{0, 1 << 40, 0, -(1 << 40), 7, 1 << 40} {
		b.Append(SV(fmt.Sprintf("q%d", i%3)), IV(v))
	}
	wide, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := wide.GroupStats([]string{"Q"}, []string{"W"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stats.Totals(), totalsRef(t, wide, []string{"W"}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("wide Totals = %v, want %v", got, want)
	}

	// Writing to the totals leaves the statistics alone, also when one
	// group (key W over rows 0 and 2) would otherwise lend its histograms.
	two, err := wide.Gather([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range [][]string{{"Q"}, {"W"}} {
		for _, tb := range []*Table{wide, two} {
			stats, err := tb.GroupStats(key, []string{"W"}, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := fmt.Sprint(stats.Groups)
			totals := stats.Totals()
			for i := range totals[0] {
				totals[0][i].Count += 100
			}
			totals[0] = totals[0].Add(5)
			if after := fmt.Sprint(stats.Groups); after != before {
				t.Fatalf("key %v: writing the totals changed the statistics: %s -> %s", key, before, after)
			}
		}
	}
}
