package search

import (
	"testing"

	"psk/internal/core"
	"psk/internal/hierarchy"
	"psk/internal/table"
)

// figure3Table reproduces the 10-row Sex/ZipCode microdata of Figure 3,
// here with a confidential Illness column added so p-sensitive searches
// have something to protect.
func figure3Table(t testing.TB) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"M", "41076", "Flu"},
		{"F", "41099", "Cold"},
		{"M", "41099", "Asthma"},
		{"M", "41076", "Cold"},
		{"F", "43102", "Flu"},
		{"M", "43102", "Asthma"},
		{"M", "43102", "Cold"},
		{"F", "43103", "Flu"},
		{"M", "48202", "Asthma"},
		{"M", "48201", "Flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// figure3Hierarchies builds the Figure 3 hierarchy set: Sex -> Person,
// ZipCode -> 431** -> *.
func figure3Hierarchies(t testing.TB) *hierarchy.Set {
	t.Helper()
	zip, err := hierarchy.NewPrefixSteps("ZipCode", 5, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	sex := hierarchy.NewFlat("Sex")
	sex.Top = "Person"
	return hierarchy.MustSet(zip, sex)
}

func kOnlyConfig(t testing.TB, ts int) Config {
	return Config{
		QIs:           []string{"Sex", "ZipCode"},
		Confidential:  []string{"Illness"},
		Hierarchies:   figure3Hierarchies(t),
		K:             3,
		P:             1,
		MaxSuppress:   ts,
		UseConditions: true,
	}
}

// TestTable4MinimalGeneralizations reproduces the paper's Table 4: the
// 3-minimal generalizations of the Figure 3 microdata for every
// suppression threshold TS from 0 to 10.
func TestTable4MinimalGeneralizations(t *testing.T) {
	tbl := figure3Table(t)
	want := map[int][]string{
		0:  {"0,2"},
		1:  {"0,2"},
		2:  {"0,2", "1,1"},
		3:  {"0,2", "1,1"},
		4:  {"0,2", "1,1"},
		5:  {"0,2", "1,1"},
		6:  {"0,2", "1,1"},
		7:  {"1,0", "0,1"},
		8:  {"1,0", "0,1"},
		9:  {"1,0", "0,1"},
		10: {"0,0"},
	}
	for ts := 0; ts <= 10; ts++ {
		res, err := Run(tbl, kOnlyConfig(t, ts), StrategyExhaustive)
		if err != nil {
			t.Fatalf("Exhaustive(TS=%d): %v", ts, err)
		}
		got := make(map[string]bool)
		for _, m := range res.Minimal {
			got[m.Node.Key()] = true
		}
		if len(got) != len(want[ts]) {
			t.Errorf("TS=%d: minimal nodes %v, want %v", ts, keys(got), want[ts])
			continue
		}
		for _, w := range want[ts] {
			if !got[w] {
				t.Errorf("TS=%d: missing minimal node <%s>; got %v", ts, w, keys(got))
			}
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSamaratiFindsMinimalHeight: for each TS, Samarati must return a
// node whose height equals the minimal height found by Exhaustive.
func TestSamaratiFindsMinimalHeight(t *testing.T) {
	tbl := figure3Table(t)
	for ts := 0; ts <= 10; ts++ {
		cfg := kOnlyConfig(t, ts)
		ex, err := Run(tbl, cfg, StrategyExhaustive)
		if err != nil {
			t.Fatal(err)
		}
		sam, err := Run(tbl, cfg, StrategySamarati)
		if err != nil {
			t.Fatal(err)
		}
		if !sam.Found {
			t.Fatalf("TS=%d: Samarati found nothing", ts)
		}
		minHeight := ex.Minimal[0].Node.Height()
		for _, m := range ex.Minimal {
			if h := m.Node.Height(); h < minHeight {
				minHeight = h
			}
		}
		if sam.Node.Height() != minHeight {
			t.Errorf("TS=%d: Samarati height %d, exhaustive minimal height %d (node %v)",
				ts, sam.Node.Height(), minHeight, sam.Node)
		}
		// The masked output must be 3-anonymous and within budget.
		ok, err := core.IsKAnonymous(sam.Masked, cfg.QIs, cfg.K)
		if err != nil || !ok {
			t.Errorf("TS=%d: Samarati output not k-anonymous (%v)", ts, err)
		}
		if sam.Suppressed > ts {
			t.Errorf("TS=%d: suppressed %d > budget", ts, sam.Suppressed)
		}
	}
}

// TestBottomUpMatchesExhaustiveMinimalHeight: BottomUp returns exactly
// the minimal-height satisfying nodes.
func TestBottomUpMatchesExhaustive(t *testing.T) {
	tbl := figure3Table(t)
	for ts := 0; ts <= 10; ts++ {
		cfg := kOnlyConfig(t, ts)
		bu, err := Run(tbl, cfg, StrategyBottomUp)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Run(tbl, cfg, StrategyExhaustive)
		if err != nil {
			t.Fatal(err)
		}
		if len(bu.Minimal) == 0 {
			t.Fatalf("TS=%d: BottomUp found nothing", ts)
		}
		h := bu.Minimal[0].Node.Height()
		// Every BottomUp hit must be among Exhaustive's minimal nodes of
		// that height.
		exMin := make(map[string]bool)
		minH := -1
		for _, m := range ex.Minimal {
			exMin[m.Node.Key()] = true
			if minH == -1 || m.Node.Height() < minH {
				minH = m.Node.Height()
			}
		}
		if h != minH {
			t.Errorf("TS=%d: BottomUp height %d, want %d", ts, h, minH)
		}
		for _, m := range bu.Minimal {
			if m.Node.Height() == minH && !exMin[m.Node.Key()] {
				t.Errorf("TS=%d: BottomUp hit %v not minimal per Exhaustive", ts, m.Node)
			}
		}
	}
}

// TestPSensitiveSearch: with p = 2 the search must reject nodes whose
// groups have constant Illness and land on a (possibly) higher node
// than the k-only search.
func TestPSensitiveSearch(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 4)
	cfg.P = 2
	res, err := Run(tbl, cfg, StrategySamarati)
	if err != nil {
		t.Fatalf("Samarati: %v", err)
	}
	if !res.Found {
		t.Fatal("p-sensitive search found nothing")
	}
	r, err := core.Check(res.Masked, cfg.QIs, cfg.Confidential, cfg.P, cfg.K)
	if err != nil || !r.Satisfied {
		t.Errorf("result not 2-sensitive 3-anonymous: %+v, %v", r, err)
	}
	// k-only minimal height for TS=4 is 2 (<0,2> or <1,1>); p=2 height
	// must be >= that.
	kOnly, err := Run(tbl, kOnlyConfig(t, 4), StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.Height() < kOnly.Node.Height() {
		t.Errorf("p=2 node %v below k-only node %v", res.Node, kOnly.Node)
	}
}

// TestCondition1ShortCircuit: an infeasible p is rejected before the
// lattice is touched by every entry point, the session's Republish
// included, but only when the built-in property runs with the
// conditions on. With the conditions off, or with a custom Policy, the
// same data is judged node by node and PrunedCondition1 stays 0.
func TestCondition1ShortCircuit(t *testing.T) {
	// Retiring every Asthma row leaves Illness with 2 distinct values,
	// so no masking of the 7 live rows is 3-sensitive; a suppression
	// threshold of 2 rules out the vacuous empty release.
	asthma := []int{2, 5, 8}
	led := table.NewLedger(figure3Table(t))
	for _, id := range asthma {
		if err := led.Retire(id); err != nil {
			t.Fatal(err)
		}
	}
	infeasible, err := led.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	run := func(s Strategy) func(*testing.T, Config) (bool, Stats) {
		return func(t *testing.T, cfg Config) (bool, Stats) {
			res, err := Run(infeasible, cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			return res.Found, res.Stats
		}
	}
	entries := []struct {
		name string
		run  func(*testing.T, Config) (found bool, stats Stats)
	}{
		{"Samarati", run(StrategySamarati)},
		{"Exhaustive", run(StrategyExhaustive)},
		{"AllMinimal", run(StrategyAllMinimal)},
		{"BottomUp", run(StrategyBottomUp)},
		{"Incognito", run(StrategyIncognito)},
		{"Republish", func(t *testing.T, cfg Config) (bool, Stats) {
			// The session publishes while all three illnesses are live;
			// the retires then make the next republish infeasible.
			s, err := OpenIncremental(figure3Table(t), cfg, StrategySamarati)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := s.Republish(); err != nil || !res.Found {
				t.Fatalf("initial publish: %+v, %v", res, err)
			}
			if err := s.Apply(nil, asthma); err != nil {
				t.Fatal(err)
			}
			res, err := s.Republish()
			if err != nil {
				t.Fatal(err)
			}
			return res.Found, res.Stats
		}},
	}
	modes := []struct {
		name   string
		edit   func(*Config)
		pruned int
	}{
		{"conditions on", func(*Config) {}, 1},
		{"conditions off", func(cfg *Config) { cfg.UseConditions = false }, 0},
		{"custom policy", func(cfg *Config) {
			cfg.Policy = core.PSensitiveKAnonymityPolicy{P: cfg.P, K: cfg.K, Attrs: cfg.Confidential}
		}, 0},
	}
	for _, e := range entries {
		for _, m := range modes {
			t.Run(e.name+"/"+m.name, func(t *testing.T) {
				cfg := kOnlyConfig(t, 2)
				cfg.P, cfg.K = 3, 4
				m.edit(&cfg)
				found, stats := e.run(t, cfg)
				if found {
					t.Error("infeasible p reported as found")
				}
				if stats.PrunedCondition1 != m.pruned {
					t.Errorf("PrunedCondition1 = %d, want %d", stats.PrunedCondition1, m.pruned)
				}
				if m.pruned == 1 && stats.NodesEvaluated != 0 {
					t.Errorf("NodesEvaluated = %d, want 0 (condition 1 fires first)", stats.NodesEvaluated)
				}
				if m.pruned == 0 && stats.NodesEvaluated == 0 {
					t.Error("no node evaluated without the condition 1 short circuit")
				}
			})
		}
	}
}

// TestUnsatisfiableWithinBudget: k larger than the table admits with a
// zero suppression budget at every node.
func TestUnsatisfiableWithinBudget(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 0)
	cfg.K = 11 // more than the number of rows
	res, err := Run(tbl, cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Stats.PrunedCondition1 != 0 {
		t.Errorf("k=11 on a 10-row table: found=%v %+v", res.Found, res.Stats)
	}
}

func TestConfigValidation(t *testing.T) {
	tbl := figure3Table(t)
	base := kOnlyConfig(t, 0)

	bad := base
	bad.K = 1
	if _, err := Run(tbl, bad, StrategySamarati); err == nil {
		t.Error("k=1 accepted")
	}
	bad = base
	bad.P = 0
	if _, err := Run(tbl, bad, StrategySamarati); err == nil {
		t.Error("p=0 accepted")
	}
	bad = base
	bad.P = 5
	bad.K = 3
	if _, err := Run(tbl, bad, StrategySamarati); err == nil {
		t.Error("p>k accepted")
	}
	bad = base
	bad.P = 2
	bad.Confidential = nil
	if _, err := Run(tbl, bad, StrategySamarati); err == nil {
		t.Error("p>=2 without confidential attributes accepted")
	}
	bad = base
	bad.MaxSuppress = -1
	if _, err := Run(tbl, bad, StrategySamarati); err == nil {
		t.Error("negative TS accepted")
	}
	bad = base
	bad.Hierarchies = nil
	if _, err := Run(tbl, bad, StrategySamarati); err == nil {
		t.Error("nil hierarchies accepted")
	}
	bad = base
	bad.QIs = []string{"Missing"}
	if _, err := Run(tbl, bad, StrategySamarati); err == nil {
		t.Error("missing QI hierarchy accepted")
	}
}

// TestConditionsDoNotChangeOutcome: with and without the necessary-
// condition filters, all three searches must find the same minimal
// heights (the conditions are *necessary*, so they can only skip
// doomed work).
func TestConditionsDoNotChangeOutcome(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for ts := 0; ts <= 10; ts += 2 {
			on := kOnlyConfig(t, ts)
			on.P = p
			off := on
			off.UseConditions = false

			rOn, err := Run(tbl, on, StrategySamarati)
			if err != nil {
				t.Fatal(err)
			}
			rOff, err := Run(tbl, off, StrategySamarati)
			if err != nil {
				t.Fatal(err)
			}
			if rOn.Found != rOff.Found {
				t.Errorf("p=%d TS=%d: conditions changed foundness %v vs %v", p, ts, rOn.Found, rOff.Found)
				continue
			}
			if rOn.Found && rOn.Node.Height() != rOff.Node.Height() {
				t.Errorf("p=%d TS=%d: heights differ with conditions: %v vs %v",
					p, ts, rOn.Node, rOff.Node)
			}
		}
	}
}

func TestMondrianBasic(t *testing.T) {
	tbl := figure3Table(t)
	res, err := Mondrian(tbl, MondrianConfig{
		QIs: []string{"Sex", "ZipCode"}, K: 3, P: 1, Strict: true,
	})
	if err != nil {
		t.Fatalf("Mondrian: %v", err)
	}
	if res.Partitions < 1 {
		t.Fatal("no partitions")
	}
	// Output must be 3-anonymous with zero suppression.
	if res.Masked.NumRows() != tbl.NumRows() {
		t.Errorf("Mondrian dropped rows: %d -> %d", tbl.NumRows(), res.Masked.NumRows())
	}
	ok, err := core.IsKAnonymous(res.Masked, []string{"Sex", "ZipCode"}, 3)
	if err != nil || !ok {
		t.Errorf("Mondrian output not 3-anonymous: %v", err)
	}
	total := 0
	for _, s := range res.GroupSizes {
		if s < 3 {
			t.Errorf("partition of size %d < k", s)
		}
		total += s
	}
	if total != tbl.NumRows() {
		t.Errorf("partition sizes sum to %d, want %d", total, tbl.NumRows())
	}
}

func TestMondrianPSensitive(t *testing.T) {
	tbl := figure3Table(t)
	res, err := Mondrian(tbl, MondrianConfig{
		QIs: []string{"Sex", "ZipCode"}, Confidential: []string{"Illness"},
		K: 3, P: 2, Strict: true,
	})
	if err != nil {
		t.Fatalf("Mondrian: %v", err)
	}
	r, err := core.Check(res.Masked, []string{"Sex", "ZipCode"}, []string{"Illness"}, 2, 3)
	if err != nil || !r.Satisfied {
		t.Errorf("Mondrian p=2 output not 2-sensitive 3-anonymous: %+v, %v", r, err)
	}
}

func TestMondrianSplitsWhenPossible(t *testing.T) {
	// 8 rows over two clear numeric clusters: Mondrian with k=2 must
	// produce more than one partition.
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "S", Type: table.String},
	)
	rows := [][]string{
		{"20", "a"}, {"21", "b"}, {"22", "a"}, {"23", "b"},
		{"70", "a"}, {"71", "b"}, {"72", "a"}, {"73", "b"},
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mondrian(tbl, MondrianConfig{QIs: []string{"Age"}, K: 2, P: 1, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions < 2 {
		t.Errorf("partitions = %d, want >= 2", res.Partitions)
	}
	// Check the range labels look like ranges or single values.
	v, _ := res.Masked.Value(0, "Age")
	if v.Str() == "" {
		t.Error("empty range label")
	}
}

func TestMondrianValidation(t *testing.T) {
	tbl := figure3Table(t)
	cases := []MondrianConfig{
		{QIs: []string{"Sex"}, K: 1, P: 1},
		{QIs: []string{"Sex"}, K: 3, P: 0},
		{QIs: []string{"Sex"}, K: 3, P: 4},
		{QIs: []string{"Sex"}, K: 3, P: 2},     // p>=2 without confidential
		{QIs: nil, K: 3, P: 1},                 // no QIs
		{QIs: []string{"Missing"}, K: 3, P: 1}, // unknown QI
		{QIs: []string{"Sex"}, K: 99, P: 1},    // k > n
		{QIs: []string{"Sex"}, K: 3, P: 2, Confidential: []string{"Missing"}},
	}
	for i, cfg := range cases {
		if _, err := Mondrian(tbl, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

// TestMondrianUnsplittable: when no split preserves the constraints the
// whole table is one partition.
func TestMondrianUnsplittable(t *testing.T) {
	sch := table.MustSchema(
		table.Field{Name: "X", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{{"a"}, {"a"}, {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mondrian(tbl, MondrianConfig{QIs: []string{"X"}, K: 2, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 1 {
		t.Errorf("partitions = %d, want 1", res.Partitions)
	}
}

// TestSamaratiP1EqualsLatticeBottomWhenTrivial: a table that is already
// k-anonymous at the bottom node must return height 0.
func TestSamaratiTrivialBottom(t *testing.T) {
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	rows := [][]string{
		{"M", "41076", "Flu"}, {"M", "41076", "Cold"}, {"M", "41076", "Flu"},
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kOnlyConfig(t, 0)
	res, err := Run(tbl, cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Node.Height() != 0 {
		t.Errorf("result = %v %v, want found at height 0", res.Found, res.Node)
	}
}

// TestStatsAblation: with conditions enabled the search must do no more
// group scans than with them disabled (they can only prune).
func TestStatsAblation(t *testing.T) {
	tbl := figure3Table(t)
	on := kOnlyConfig(t, 4)
	on.P = 2
	off := on
	off.UseConditions = false

	rOn, err := Run(tbl, on, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := Run(tbl, off, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if rOn.Stats.GroupScans > rOff.Stats.GroupScans {
		t.Errorf("conditions increased group scans: %d > %d",
			rOn.Stats.GroupScans, rOff.Stats.GroupScans)
	}
}
