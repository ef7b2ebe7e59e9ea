package search

import (
	"fmt"
	"math/rand"
	"testing"

	"psk/internal/core"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
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
	bounds, err := searchBounds(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bounds.Feasible() {
		t.Fatalf("oracle fixture fails Condition 1; no node is ever evaluated")
	}
	policy := cfg.effectivePolicy(bounds)
	conf := cfg.effectiveConf()
	o := rowScanOracle{lat: m.Lattice(), out: make(map[string]oracleOutcome)}
	for _, node := range o.lat.AllNodes() {
		r := oracleOutcome{stats: Stats{NodesEvaluated: 1}}
		g, err := m.Apply(im, node)
		if err != nil {
			t.Fatal(err)
		}
		mm, suppressed, within, err := m.SuppressWithin(g, cfg.K, cfg.MaxSuppress)
		if err != nil {
			t.Fatal(err)
		}
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

func (o rowScanOracle) minimalNode(n lattice.Node) MinimalNode {
	r := o.out[n.Key()]
	return MinimalNode{Node: n, Masked: r.masked, Suppressed: r.suppressed}
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
	return res
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
	return res
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
	return res
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
	return res
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
		if Strategy(s) == StrategyIncognito {
			got = Result{Minimal: got.Minimal}
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
