package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"psk/internal/core"
	"psk/internal/generalize"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/loss"
	"psk/internal/table"
)

// The row-scan oracle is the reference every strategy is pinned to. It
// evaluates each lattice node the plain way: Masker.Apply generalizes
// the rows, Masker.SuppressWithin enforces the budget and drops the
// sub-k groups, and the search's effective policy runs on a fresh
// GroupStats of the masked table. No column cache, roll-up store or
// statistics-side suppression is involved. Each strategy's expected
// result is then replayed from the per-node verdicts. Run with -race to
// also exercise the engine's synchronization.

// oracleOutcome is one node's row-scan verdict and the Stats delta the
// engine must charge for it.
type oracleOutcome struct {
	ok         bool
	masked     *table.Table
	suppressed int
	stats      Stats
}

// rowScanOracle holds the verdict of every node of one lattice.
type rowScanOracle struct {
	lat *lattice.Lattice
	out map[string]oracleOutcome
}

func newRowScanOracle(t testing.TB, im *table.Table, cfg Config) rowScanOracle {
	t.Helper()
	m, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	bounds := rowScanBounds(t, im, cfg)
	if !bounds.Feasible() {
		t.Fatalf("oracle fixture fails Condition 1; no node is ever evaluated")
	}
	policy := cfg.effectivePolicy(bounds)
	conf := cfg.effectiveConf()
	o := rowScanOracle{lat: m.Lattice(), out: make(map[string]oracleOutcome)}
	for _, node := range o.lat.AllNodes() {
		r := oracleOutcome{stats: Stats{NodesEvaluated: 1}}
		mm, suppressed, within := rowScanMask(t, m, im, cfg, node)
		if within {
			r.stats.SuppressedRows = suppressed
			v, err := core.NewStatsView(mm, cfg.QIs, conf, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := policy.Evaluate(v)
			if err != nil {
				t.Fatal(err)
			}
			switch res.Reason {
			case core.FailedCondition1:
				r.stats.PrunedCondition1 = 1
			case core.FailedCondition2:
				r.stats.PrunedCondition2 = 1
			default:
				r.stats.GroupScans = 1
			}
			if res.Satisfied {
				r.ok, r.masked, r.suppressed = true, mm, suppressed
			}
		}
		o.out[node.Key()] = r
	}
	return o
}

// rowScanMask builds node's masked table the oracle's way,
// Masker.Apply then Masker.SuppressWithin, with the tuples it
// suppresses and whether they are within the budget.
func rowScanMask(t testing.TB, m *generalize.Masker, im *table.Table, cfg Config, node lattice.Node) (*table.Table, int, bool) {
	t.Helper()
	g, err := m.Apply(im, node)
	if err != nil {
		t.Fatal(err)
	}
	mm, suppressed, within, err := m.SuppressWithin(g, cfg.K, cfg.MaxSuppress)
	if err != nil {
		t.Fatal(err)
	}
	return mm, suppressed, within
}

// rowScanRelease is the table the oracle's pipeline releases at a node a
// search found, built from im's rows alone. The rows must suppress
// exactly the tuples the search reported for it, within the budget.
func rowScanRelease(t testing.TB, im *table.Table, cfg Config, mn MinimalNode) *table.Table {
	t.Helper()
	m, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	mm, suppressed, within := rowScanMask(t, m, im, cfg, mn.Node)
	if !within || suppressed != mn.Suppressed {
		t.Fatalf("node %v: the rows suppress %d tuples (within budget %v), the search reported %d", mn.Node, suppressed, within, mn.Suppressed)
	}
	return mm
}

// rowScanBounds computes the necessary-condition bounds the way the
// paper states them, on the rows of the initial microdata
// (core.ComputeBounds), for the configurations whose policy uses them;
// otherwise the permissive bounds that never reject.
func rowScanBounds(t testing.TB, im *table.Table, cfg Config) core.Bounds {
	t.Helper()
	if cfg.Policy == nil && cfg.UseConditions && cfg.P >= 2 {
		b, err := core.ComputeBounds(im, cfg.Confidential, cfg.P)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return core.Bounds{MaxP: cfg.P, MaxGroups: im.NumRows(), P: cfg.P}
}

func (o rowScanOracle) minimalNode(n lattice.Node) MinimalNode {
	return MinimalNode{Node: n, Suppressed: o.out[n.Key()].suppressed}
}

// released gives a replayed result the table a search releases:
// Minimal[0]'s.
func (o rowScanOracle) released(res Result) Result {
	if len(res.Minimal) > 0 {
		res.Masked = o.out[res.Minimal[0].Node.Key()].masked
	}
	return res
}

// exhaustive: every node evaluated; Minimal is Definition 3 over the
// satisfying set.
func (o rowScanOracle) exhaustive() Result {
	var res Result
	for _, node := range o.lat.AllNodes() {
		r := o.out[node.Key()]
		res.Stats.Merge(r.stats)
		if r.ok {
			res.Satisfying = append(res.Satisfying, node)
		}
	}
	for _, n := range lattice.Minimal(res.Satisfying) {
		res.Minimal = append(res.Minimal, o.minimalNode(n))
	}
	return o.released(res)
}

// bottomUp: levels in ascending height up to the first one holding a
// satisfying node, whose satisfying nodes are the answer.
func (o rowScanOracle) bottomUp() Result {
	var res Result
	for h := 0; h <= o.lat.Height() && len(res.Minimal) == 0; h++ {
		for _, node := range o.lat.NodesAtHeight(h) {
			r := o.out[node.Key()]
			res.Stats.Merge(r.stats)
			if r.ok {
				res.Satisfying = append(res.Satisfying, node)
				res.Minimal = append(res.Minimal, o.minimalNode(node))
			}
		}
	}
	return o.released(res)
}

// allMinimal: the bottom-up walk that never evaluates a strict
// generalization of a satisfying node and counts it as satisfying.
func (o rowScanOracle) allMinimal() Result {
	var res Result
	for h := 0; h <= o.lat.Height(); h++ {
		for _, node := range o.lat.NodesAtHeight(h) {
			covered := false
			for _, m := range res.Minimal {
				covered = covered || node.StrictGeneralizationOf(m.Node)
			}
			if covered {
				res.Satisfying = append(res.Satisfying, node)
				continue
			}
			r := o.out[node.Key()]
			res.Stats.Merge(r.stats)
			if r.ok {
				res.Satisfying = append(res.Satisfying, node)
				res.Minimal = append(res.Minimal, o.minimalNode(node))
			}
		}
	}
	return o.released(res)
}

// samarati: Algorithm 3's binary search on height, each probe scanning
// its level in node order up to the first satisfying node.
func (o rowScanOracle) samarati() Result {
	var res Result
	first := func(h int) lattice.Node {
		for _, node := range o.lat.NodesAtHeight(h) {
			r := o.out[node.Key()]
			res.Stats.Merge(r.stats)
			if r.ok {
				return node
			}
		}
		return nil
	}
	var found lattice.Node
	low, high := 0, o.lat.Height()
	for low < high {
		try := (low + high) / 2
		if n := first(try); n != nil {
			found, high = n, try
		} else {
			low = try + 1
		}
	}
	if found == nil || found.Height() != low {
		if n := first(low); n != nil {
			found = n
		}
	}
	if found != nil {
		res.Minimal = []MinimalNode{o.minimalNode(found)}
	}
	return o.released(res)
}

// checkStrategiesAgainstOracle runs all five strategies under cfg and
// compares each with the oracle's replay.
func checkStrategiesAgainstOracle(t *testing.T, name string, im *table.Table, cfg Config, o rowScanOracle) {
	t.Helper()
	// Incognito's subset pruning and AllMinimal's tagging both rest on
	// monotonicity, so on the full lattice they keep the same minimal
	// nodes; Incognito reports them in (height, key) order, and its work
	// counters include subset passes the oracle does not replay.
	incognito := Result{Minimal: o.allMinimal().Minimal}
	sortMinimal(incognito.Minimal)
	incognito = o.released(incognito)
	wants := [numStrategies]Result{
		StrategySamarati:   o.samarati(),
		StrategyBottomUp:   o.bottomUp(),
		StrategyExhaustive: o.exhaustive(),
		StrategyAllMinimal: o.allMinimal(),
		StrategyIncognito:  incognito,
	}
	for s, want := range wants {
		got, err := Run(im, cfg, Strategy(s))
		if err != nil {
			t.Fatal(err)
		}
		if got.Found {
			// The utility report read off the found node's statistics is
			// the table-scanning one of the release.
			rep, err := loss.Measure(loss.Input{
				Initial: im, Masked: got.Masked, QIs: cfg.QIs,
				Node: got.Node, Lattice: o.lat, K: cfg.K,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Utility, rep) {
				t.Errorf("%s: %s utility %+v, loss.Measure %+v", name, Strategy(s), got.Utility, rep)
			}
		}
		if Strategy(s) == StrategyIncognito {
			got = Result{Minimal: got.Minimal, Masked: got.Masked}
		}
		if fmtResult(got) != fmtResult(want) {
			t.Errorf("%s: %s differs from the oracle:\n%s\nwant\n%s", name, Strategy(s), fmtResult(got), fmtResult(want))
		}
	}
}

// TestStrategiesMatchRowScanOracle pins every strategy to the row-scan
// oracle across the Figure 3 grid, serially and on four workers.
func TestStrategiesMatchRowScanOracle(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for ts := 0; ts <= 10; ts += 2 {
			for _, useCond := range []bool{true, false} {
				cfg := kOnlyConfig(t, ts)
				cfg.P = p
				cfg.UseConditions = useCond
				o := newRowScanOracle(t, tbl, cfg)
				for _, w := range []int{1, 4} {
					cfg.Workers = w
					name := fmt.Sprintf("p=%d/TS=%d/cond=%v/w=%d", p, ts, useCond, w)
					checkStrategiesAgainstOracle(t, name, tbl, cfg, o)
				}
			}
		}
	}
}

// TestStrategiesMatchRowScanOracleRandomized: the same pin on randomized
// tables over a deeper lattice, where roll-ups chain across several
// levels.
func TestStrategiesMatchRowScanOracleRandomized(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl, cfg := randomSearchFixture(t, rng, 150+rng.Intn(250))
		cfg.K = 2 + rng.Intn(3)
		cfg.P = 1 + rng.Intn(2)
		cfg.MaxSuppress = rng.Intn(20)
		cfg.UseConditions = rng.Intn(2) == 0
		o := newRowScanOracle(t, tbl, cfg)
		for _, w := range []int{1, 4} {
			cfg.Workers = w
			name := fmt.Sprintf("seed=%d w=%d K=%d P=%d TS=%d cond=%v",
				seed, w, cfg.K, cfg.P, cfg.MaxSuppress, cfg.UseConditions)
			checkStrategiesAgainstOracle(t, name, tbl, cfg, o)
		}
	}
}

// randomSearchFixture builds an n-row microdata with three prefix-coded
// QIs and one confidential attribute, plus matching hierarchies — a
// deeper lattice than the Figure 3 fixture, so roll-ups chain across
// several levels.
func randomSearchFixture(t testing.TB, rng *rand.Rand, n int) (*table.Table, Config) {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Zip", Type: table.String},
		table.Field{Name: "Age", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("4%d%d", rng.Intn(3), rng.Intn(4)),
			fmt.Sprintf("%d%d", 2+rng.Intn(4), rng.Intn(10)),
			[]string{"M", "F"}[rng.Intn(2)],
			fmt.Sprintf("d%d", rng.Intn(5)),
		}
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	zip, err := hierarchy.NewPrefix("Zip", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	age, err := hierarchy.NewPrefix("Age", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sex := hierarchy.NewFlat("Sex")
	sex.Top = "Person"
	cfg := Config{
		QIs:          []string{"Zip", "Age", "Sex"},
		Confidential: []string{"Illness"},
		Hierarchies:  hierarchy.MustSet(zip, age, sex),
	}
	return tbl, cfg
}

// TestStrategiesMatchRowScanOracleMixedTypes: the same pin on the column
// types the benchmark job searches — an Int QI under an interval
// hierarchy, a Tree QI, a Flat QI, and String, Int and Float
// confidential attributes — on the full table and on a gathered half
// whose dictionaries hold values no row carries. K, P, the suppression
// budget and the conditions switch are drawn per seed, and so is a
// composite policy beside the built-in verdict: (p, alpha)-sensitive
// k-anonymity with distinct l-diversity and t-closeness on every
// confidential attribute (core.Composite) and entropy l-diversity on
// one. The built-in verdict reads only each histogram's distinct count;
// the composite's alpha, t and entropy read its counts, so a merge that
// keeps every code but miscounts one changes some strategy's result.
func TestStrategiesMatchRowScanOracleMixedTypes(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full, half, cfg := mixedSearchFixture(t, rng, 200+rng.Intn(200))
		cfg.K = 2 + rng.Intn(4)
		cfg.P = 1 + rng.Intn(2)
		cfg.MaxSuppress = rng.Intn(30)
		cfg.UseConditions = rng.Intn(2) == 0
		closeness := 0.2 + 0.1*float64(rng.Intn(4))
		composite, err := core.Composite(cfg.Confidential, cfg.P, cfg.K, rng.Intn(3), &closeness, 0.5+0.1*float64(rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		entropy := core.EntropyLDiversityPolicy{Attr: cfg.Confidential[rng.Intn(len(cfg.Confidential))], L: 2}
		for _, policy := range []core.Policy{nil, core.All(composite, entropy)} {
			cfg.Policy = policy
			verdict := "built-in"
			if policy != nil {
				verdict = policy.Name()
			}
			for _, tc := range []struct {
				name string
				tbl  *table.Table
			}{{"full", full}, {"half", half}} {
				o := newRowScanOracle(t, tc.tbl, cfg)
				for _, w := range []int{1, 4} {
					cfg.Workers = w
					name := fmt.Sprintf("seed=%d %s w=%d K=%d P=%d TS=%d cond=%v policy=%s",
						seed, tc.name, w, cfg.K, cfg.P, cfg.MaxSuppress, cfg.UseConditions, verdict)
					checkStrategiesAgainstOracle(t, name, tc.tbl, cfg, o)
				}
			}
		}
	}
}

// mixedSearchFixture builds an n-row microdata over the benchmark job's
// column types with matching hierarchies, and a gathered half of it.
// The half is gathered from the rows plus two extra ones, so its string
// dictionaries also hold a Marital value the tree hierarchy does not
// know: generalizing it fails, and only the rows — none of which carry
// it — may decide whether that matters.
func mixedSearchFixture(t testing.TB, rng *rand.Rand, n int) (full, half *table.Table, cfg Config) {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "Marital", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
		table.Field{Name: "Income", Type: table.Int},
		table.Field{Name: "Score", Type: table.Float},
	)
	marital := []string{"Never-married", "Divorced", "Widowed", "Married-civ", "Married-AF"}
	row := func() []string {
		return []string{
			fmt.Sprint(12 + rng.Intn(80)),
			marital[rng.Intn(len(marital))],
			[]string{"M", "F"}[rng.Intn(2)],
			fmt.Sprintf("d%d", rng.Intn(4)),
			fmt.Sprint(1000 * rng.Intn(5)),
			fmt.Sprint(float64(rng.Intn(4))/4 - 0.5),
		}
	}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = row()
	}
	full, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	extra := append(append([][]string(nil), rows...), row(), row())
	extra[n][1] = "Unknown"
	parent, err := table.FromText(sch, extra)
	if err != nil {
		t.Fatal(err)
	}
	var keep []int
	for i := 0; i < n; i += 2 {
		keep = append(keep, i)
	}
	if half, err = parent.Gather(keep); err != nil {
		t.Fatal(err)
	}
	age, err := hierarchy.NewInterval("Age", []hierarchy.IntervalLevel{
		hierarchy.DecadeLevel("decades", 12, 91, 10),
		{Cuts: []int64{50}, Labels: []string{"<50", ">=50"}},
		{Labels: []string{hierarchy.Suppressed}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.NewTree("Marital", map[string][]string{
		"Never-married": {"Single", hierarchy.Suppressed},
		"Divorced":      {"Single", hierarchy.Suppressed},
		"Widowed":       {"Single", hierarchy.Suppressed},
		"Married-civ":   {"Married", hierarchy.Suppressed},
		"Married-AF":    {"Married", hierarchy.Suppressed},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg = Config{
		QIs:          []string{"Age", "Marital", "Sex"},
		Confidential: []string{"Illness", "Income", "Score"},
		Hierarchies:  hierarchy.MustSet(age, tree, hierarchy.NewFlat("Sex")),
	}
	return full, half, cfg
}
