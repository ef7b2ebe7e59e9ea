package generalize

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/table"
)

// FuzzLevelMap drives the level maps the cache derives from per-value
// hierarchy walks against the maps table.BuildCodeMap builds from two
// materialized columns. values is a comma-separated list of the QI's
// cells (at most 64), parsed as int64 when intQI is set (cells that do
// not parse are dropped); gathered gathers every other row from the
// table, so a string column's shared dictionary holds values no row
// carries. For each hierarchy kind — Flat, Prefix, PrefixSteps,
// Interval, Tree, and one that is not nested — and every ordered pair
// of levels, the derived map must equal BuildCodeMap's on every row, or
// both must fail; every materialized column must hold the labels
// Masker.Apply writes row by row. checkLevelMaps names the two outcomes
// that differ from BuildCodeMap's by design. Seed corpus under
// testdata/fuzz.
func FuzzLevelMap(f *testing.F) {
	f.Add("10,25,31,47,25,10", true, false)
	f.Add("12,21,33,44,19,12", false, true)
	f.Fuzz(func(t *testing.T, values string, intQI, gathered bool) {
		tbl := levelMapTable(t, values, intQI, gathered)
		if tbl == nil {
			return
		}
		for _, h := range levelMapHierarchies(t) {
			checkLevelMaps(t, tbl, h, gathered)
		}
	})
}

// levelMapTable decodes the fuzz input into a one-column table "Q", or
// nil when no cell survives.
func levelMapTable(t *testing.T, values string, intQI, gathered bool) *table.Table {
	t.Helper()
	typ := table.String
	if intQI {
		typ = table.Int
	}
	var rows [][]string
	for _, v := range strings.Split(values, ",") {
		if len(rows) == 64 {
			break
		}
		if intQI {
			if _, err := strconv.ParseInt(v, 10, 64); err != nil {
				continue
			}
		}
		rows = append(rows, []string{v})
	}
	if len(rows) == 0 {
		return nil
	}
	tbl, err := table.FromText(table.MustSchema(table.Field{Name: "Q", Type: typ}), rows)
	if err != nil {
		t.Fatal(err)
	}
	if !gathered {
		return tbl
	}
	var keep []int
	for r := 0; r < tbl.NumRows(); r += 2 {
		keep = append(keep, r)
	}
	if tbl, err = tbl.Gather(keep); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// levelMapHierarchies builds one hierarchy of each kind for "Q". The
// prefix hierarchies expect two-character values and the interval one
// integers, the tree knows "10" to "39" only, so other cells fail to
// generalize.
func levelMapHierarchies(t *testing.T) []hierarchy.Hierarchy {
	t.Helper()
	prefix, err := hierarchy.NewPrefix("Q", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := hierarchy.NewPrefixSteps("Q", 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	interval, err := hierarchy.NewInterval("Q", []hierarchy.IntervalLevel{
		hierarchy.DecadeLevel("decades", 10, 49, 10),
		{Cuts: []int64{30}, Labels: []string{"<30", ">=30"}},
		{Labels: []string{hierarchy.Suppressed}},
	})
	if err != nil {
		t.Fatal(err)
	}
	chains := make(map[string][]string)
	for v := 10; v <= 39; v++ {
		half := "low"
		if v >= 30 {
			half = "high"
		}
		chains[strconv.Itoa(v)] = []string{fmt.Sprintf("%dx", v/10), half, hierarchy.Suppressed}
	}
	tree, err := hierarchy.NewTree("Q", chains)
	if err != nil {
		t.Fatal(err)
	}
	return []hierarchy.Hierarchy{hierarchy.NewFlat("Q"), prefix, steps, interval, tree, crossHierarchy{}}
}

// crossHierarchy is deliberately not nested: level 1 keeps a value's
// last character and level 2 its first, so two values sharing a level-1
// label can part at level 2. A value starting with 'x' generalizes to
// level 1 but not to level 2, so it can also fail where a value sharing
// its level-1 label succeeds. NewTree and NewInterval reject such
// hierarchies; the cache must still refuse the maps the rows refute.
type crossHierarchy struct{}

func (crossHierarchy) Attribute() string          { return "Q" }
func (crossHierarchy) Height() int                { return 2 }
func (crossHierarchy) LevelName(level int) string { return strconv.Itoa(level) }

func (crossHierarchy) Generalize(v string, level int) (string, error) {
	switch {
	case level == 0:
		return v, nil
	case v == "" || level > 2 || (level == 2 && v[0] == 'x'):
		return "", fmt.Errorf("cross: cannot generalize %q to level %d", v, level)
	case level == 1:
		return v[len(v)-1:], nil
	default:
		return v[:1], nil
	}
}

// checkLevelMaps compares, for every ordered pair of h's levels, the map
// a fresh cache derives against BuildCodeMap over the columns a second
// cache materializes, and those columns against Masker.Apply.
//
// Two outcomes differ from BuildCodeMap's by design. When a row carries
// a value that fails to generalize to `to`, its column fails, while the
// derived map leaves that row's code without a translation, so a
// roll-up through it fails too. And the derived map also fails on a
// conflict among values no row carries, which only a gathered table
// under a relation that is not nested produces: the non-nested
// hierarchy, or a specializing pair (from > to), which no roll-up
// requests. The search then groups the node's rows directly, which
// BuildCodeMap's success shows is sound.
func checkLevelMaps(t *testing.T, tbl *table.Table, h hierarchy.Hierarchy, gathered bool) {
	t.Helper()
	m, err := NewMasker([]string{"Q"}, hierarchy.MustSet(h))
	if err != nil {
		t.Fatal(err)
	}
	derived, ref := m.NewCache(tbl, nil), m.NewCache(tbl, nil)
	cols := make([]table.Column, h.Height()+1)
	colErrs := make([]error, h.Height()+1)
	for level := range cols {
		cols[level], colErrs[level] = levelColumn(ref, tbl, "Q", level)
		applied, err := m.Apply(tbl, lattice.Node{level})
		if (err == nil) != (colErrs[level] == nil) {
			t.Fatalf("%T level %d: column error %v, Masker.Apply error %v", h, level, colErrs[level], err)
		}
		if err != nil {
			continue
		}
		want, err := applied.Column("Q")
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < tbl.NumRows(); r++ {
			if got := cols[level].Value(r).Str(); got != want.Value(r).Str() {
				t.Fatalf("%T level %d row %d: column holds %q, Masker.Apply %q", h, level, r, got, want.Value(r).Str())
			}
		}
	}
	_, nonNested := h.(crossHierarchy)
	for from := range cols {
		for to := range cols {
			if from == to {
				continue
			}
			cm, err := derived.LevelMap("Q", from, to)
			switch {
			case colErrs[from] != nil:
				// No statistics exist at a level whose column fails,
				// so nothing rolls up from it.
				continue
			case colErrs[to] != nil:
				if err == nil && mapsEveryRow(cm, cols[from], tbl.NumRows()) {
					t.Fatalf("%T %d->%d: level %d column fails (%v), but the derived map translates every row",
						h, from, to, to, colErrs[to])
				}
				continue
			}
			want, wantErr := table.BuildCodeMap(cols[from], cols[to])
			if err != nil && wantErr == nil && gathered && (nonNested || from > to) {
				continue
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%T %d->%d: LevelMap error %v, reference error %v", h, from, to, err, wantErr)
			}
			if err != nil {
				continue
			}
			for r := 0; r < tbl.NumRows(); r++ {
				fc := cols[from].Code(r)
				got, ok := cm.Map(fc)
				w, _ := want.Map(fc)
				if !ok || got != w || got != cols[to].Code(r) {
					t.Fatalf("%T %d->%d row %d: Map(%d) = %d,%v; BuildCodeMap %d; column code %d",
						h, from, to, r, fc, got, ok, w, cols[to].Code(r))
				}
			}
		}
	}
}

// mapsEveryRow reports whether cm translates every row's code in col.
func mapsEveryRow(cm *table.CodeMap, col table.Column, n int) bool {
	for r := 0; r < n; r++ {
		if _, ok := cm.Map(col.Code(r)); !ok {
			return false
		}
	}
	return true
}
