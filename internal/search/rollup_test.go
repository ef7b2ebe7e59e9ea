package search

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/obs"
	"psk/internal/table"
)

// TestRollupStoreScansOnce: an exhaustive search over the whole lattice
// must hit the row-scanning fallback exactly once (the lattice bottom);
// every other node's statistics must arrive via roll-up. This pins the
// perf contract, not just the equivalence.
func TestRollupStoreScansOnce(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 4)
	cfg.P = 2
	m, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	e := newEvaluator(tbl, m, cfg).bind(rowScanBounds(t, tbl, cfg))
	nodes := m.Lattice().AllNodes()
	for _, node := range nodes {
		if o := e.evalNode(node); o.err != nil {
			t.Fatal(o.err)
		}
	}
	if len(e.rollups.entries) != len(nodes) {
		t.Errorf("store holds %d entries, want %d", len(e.rollups.entries), len(nodes))
	}
	if scans := e.rollups.rowScans.Load(); scans != 1 {
		t.Errorf("row-scanning fallback ran %d times, want 1 (lattice bottom only)", scans)
	}
	// Re-evaluating is served entirely from the store.
	for _, node := range nodes {
		if o := e.evalNode(node); o.err != nil {
			t.Fatal(o.err)
		}
	}
	if len(e.rollups.entries) != len(nodes) || e.rollups.rowScans.Load() != 1 {
		t.Error("re-evaluation grew the store or re-scanned rows")
	}
}

// TestRollupSourceDeterministic: a serial search picks the same roll-up
// source for every node on every run, so repeated runs report identical
// cache and level-map counters (the store is a map, so an unordered tie
// between equally high descendants would make them wander).
func TestRollupSourceDeterministic(t *testing.T) {
	src, cfg := adultSample(t, 30000)
	im, err := src.Sample(1000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	var first obs.CacheStats
	for i := 0; i < 12; i++ {
		cfg.Recorder = obs.NewRecorder()
		if _, err := Run(im, cfg, StrategySamarati); err != nil {
			t.Fatal(err)
		}
		got := cfg.Recorder.Snapshot().Cache
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d cache counters %+v, run 0 %+v", i, got, first)
		}
	}
}

// TestOneRowPassPerSearch pins the search's row budget: the lattice
// bottom's statistics are the only row scan a search starts — bounds,
// the loss baseline and Incognito's subset projections are read off
// them — for every strategy at workers 1 and 4, on the oracle fixtures
// and on the release job. On a search no node satisfies, nothing is
// materialized, so no column is built at all: level maps come from the
// per-value hierarchy walks, even where a gathered table's dictionary
// holds a value the hierarchy rejects.
func TestOneRowPassPerSearch(t *testing.T) {
	type fixture struct {
		name string
		tbl  *table.Table
		cfg  Config
		// noneSatisfies marks a feasible search no node passes.
		noneSatisfies bool
	}
	var fixtures []fixture
	fig3 := figure3Table(t)
	for _, p := range []int{1, 2} {
		cfg := kOnlyConfig(t, 4)
		cfg.P = p
		fixtures = append(fixtures, fixture{name: fmt.Sprintf("figure3 p=%d", p), tbl: fig3, cfg: cfg})
	}
	rng := rand.New(rand.NewSource(1))
	tbl, cfg := randomSearchFixture(t, rng, 300)
	cfg.K, cfg.P, cfg.MaxSuppress = 3, 2, 10
	fixtures = append(fixtures, fixture{name: "random", tbl: tbl, cfg: cfg})
	full, half, cfg := mixedSearchFixture(t, rng, 300)
	cfg.K, cfg.P, cfg.MaxSuppress, cfg.UseConditions = 3, 2, 10, true
	fixtures = append(fixtures, fixture{name: "mixed full", tbl: full, cfg: cfg}, fixture{name: "mixed half", tbl: half, cfg: cfg})
	// No node satisfies: every group is below K and nothing may be
	// suppressed.
	cfg.K, cfg.MaxSuppress = half.NumRows()+1, 0
	fixtures = append(fixtures, fixture{name: "mixed half, none satisfies", tbl: half, cfg: cfg, noneSatisfies: true})
	adult, cfg := adultSample(t, 5000)
	cfg.K, cfg.MaxSuppress = 10, adult.NumRows()/100
	fixtures = append(fixtures, fixture{name: "release job", tbl: adult, cfg: cfg})
	cfg.K, cfg.MaxSuppress = adult.NumRows()+1, 0
	fixtures = append(fixtures, fixture{name: "release job, none satisfies", tbl: adult, cfg: cfg, noneSatisfies: true})

	for _, f := range fixtures {
		for s := range numStrategies {
			for _, w := range []int{1, 4} {
				cfg := f.cfg
				cfg.Workers = w
				cfg.Recorder = obs.NewRecorder()
				res, err := Run(f.tbl, cfg, s)
				if err != nil {
					t.Fatalf("%s %s w=%d: %v", f.name, s, w, err)
				}
				rep := res.Report
				if rep.Rollup.RowScans != 1 {
					t.Errorf("%s %s w=%d: %d row scans, want 1", f.name, s, w, rep.Rollup.RowScans)
				}
				if f.noneSatisfies {
					if res.Found || res.Stats.NodesEvaluated == 0 {
						t.Fatalf("%s %s w=%d: found=%v after %d nodes; the fixture must evaluate and reject",
							f.name, s, w, res.Found, res.Stats.NodesEvaluated)
					}
					if rep.Cache.Misses != 0 {
						t.Errorf("%s %s w=%d: %d columns built, want 0", f.name, s, w, rep.Cache.Misses)
					}
				}
			}
		}
	}
}

// crossHierarchy is deliberately not nested: level 1 keeps a value's
// last character and level 2 its first, so two values sharing a level-1
// label can part at level 2 and no level map between them exists.
type crossHierarchy struct{ attr string }

func (h crossHierarchy) Attribute() string        { return h.attr }
func (crossHierarchy) Height() int                { return 2 }
func (crossHierarchy) LevelName(level int) string { return fmt.Sprint(level) }

func (crossHierarchy) Generalize(v string, level int) (string, error) {
	switch {
	case level == 0:
		return v, nil
	case v == "" || level > 2:
		return "", fmt.Errorf("cross: cannot generalize %q to level %d", v, level)
	case level == 1:
		return v[len(v)-1:], nil
	default:
		return v[:1], nil
	}
}

// TestNonNestedHierarchyScansRows: where a level map fails because two
// values sharing a code part at a coarser level, the search groups that
// node's rows instead of rolling up, and the exhaustive search still
// equals the row-scan oracle's. The full table's rows refute the map;
// the gathered half's rows do not, but its dictionary holds the values
// that part, so the map fails there too.
func TestNonNestedHierarchyScansRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]string, 240)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("%d%d", 1+rng.Intn(3), 1+rng.Intn(3)),
			[]string{"M", "F"}[rng.Intn(2)],
			fmt.Sprintf("d%d", rng.Intn(3)),
		}
	}
	full, err := table.FromText(table.MustSchema(
		table.Field{Name: "Z", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	), rows)
	if err != nil {
		t.Fatal(err)
	}
	var keep []int // rows whose Z is "11", "22" or "33": functional on them
	for i, r := range rows {
		if r[0][0] == r[0][1] {
			keep = append(keep, i)
		}
	}
	half, err := full.Gather(keep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QIs:          []string{"Z", "Sex"},
		Confidential: []string{"Illness"},
		Hierarchies:  hierarchy.MustSet(crossHierarchy{"Z"}, hierarchy.NewFlat("Sex")),
		K:            20, P: 2, MaxSuppress: 4,
	}
	for _, tc := range []struct {
		name string
		tbl  *table.Table
	}{{"full", full}, {"half", half}} {
		want := newRowScanOracle(t, tc.tbl, cfg).exhaustive()
		for _, w := range []int{1, 4} {
			cfg.Workers = w
			cfg.Recorder = obs.NewRecorder()
			got, err := Run(tc.tbl, cfg, StrategyExhaustive)
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, w, err)
			}
			if fmtResult(got) != fmtResult(want) {
				t.Errorf("%s w=%d differs from the oracle:\n%s\nwant\n%s", tc.name, w, fmtResult(got), fmtResult(want))
			}
			// Serially a Z-level-2 node rolls up from a Z-level-1 one,
			// whose map fails; a worker pool may find a level-0 source.
			if scans := got.Report.Rollup.RowScans; w == 1 && scans < 2 {
				t.Errorf("%s: %d row scans; no node fell back to its rows", tc.name, scans)
			}
		}
	}
}

// TestUngeneralizableValueFailsSearch: a level map leaves out a value
// that fails to generalize, so rolling up a row that carries it fails,
// and the node's row scan reports the value's error as materializing
// its column does. Every strategy fails the search with that error.
func TestUngeneralizableValueFailsSearch(t *testing.T) {
	// Z values agree in their first and last characters, so every map
	// between levels is functional but for the empty value.
	rows := [][]string{{"11", "M", "a"}, {"22", "F", "b"}, {"", "M", "c"}, {"11", "F", "a"}}
	tbl, err := table.FromText(table.MustSchema(
		table.Field{Name: "Z", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	), rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QIs:          []string{"Z", "Sex"},
		Confidential: []string{"Illness"},
		Hierarchies:  hierarchy.MustSet(crossHierarchy{"Z"}, hierarchy.NewFlat("Sex")),
		K:            len(rows) + 1, P: 1,
	}
	for s := range numStrategies {
		for _, w := range []int{1, 4} {
			cfg.Workers = w
			_, err := Run(tbl, cfg, s)
			if err == nil || !strings.Contains(err.Error(), `cannot generalize ""`) {
				t.Errorf("%s w=%d: error %v, want the value's generalization error", s, w, err)
			}
		}
	}
}
