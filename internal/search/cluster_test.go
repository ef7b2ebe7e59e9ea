package search

import (
	"strings"
	"testing"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/hierarchy"
	"psk/internal/table"
)

func TestGreedyClusterBasic(t *testing.T) {
	tbl := figure3Table(t)
	res, err := GreedyCluster(tbl, ClusterConfig{
		QIs: []string{"Sex", "ZipCode"}, Confidential: []string{"Illness"},
		K: 3, P: 2,
	})
	if err != nil {
		t.Fatalf("GreedyCluster: %v", err)
	}
	if res.Masked.NumRows() != tbl.NumRows() {
		t.Errorf("rows = %d, want %d (clustering never suppresses)", res.Masked.NumRows(), tbl.NumRows())
	}
	chk, err := core.Check(res.Masked, []string{"Sex", "ZipCode"}, []string{"Illness"}, 2, 3)
	if err != nil || !chk.Satisfied {
		t.Errorf("output fails 2-sensitive 3-anonymity: %+v, %v", chk, err)
	}
	total := 0
	for _, s := range res.GroupSizes {
		if s < 3 {
			t.Errorf("cluster size %d < k", s)
		}
		total += s
	}
	if total != tbl.NumRows() {
		t.Errorf("cluster sizes sum to %d", total)
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestGreedyClusterKOnly(t *testing.T) {
	tbl := figure3Table(t)
	res, err := GreedyCluster(tbl, ClusterConfig{
		QIs: []string{"Sex", "ZipCode"}, K: 2, P: 1,
	})
	if err != nil {
		t.Fatalf("GreedyCluster: %v", err)
	}
	ok, err := core.IsKAnonymous(res.Masked, []string{"Sex", "ZipCode"}, 2)
	if err != nil || !ok {
		t.Errorf("output not 2-anonymous: %v", err)
	}
	if res.Clusters < 2 {
		t.Errorf("clusters = %d; a 10-row table at k=2 should split", res.Clusters)
	}
}

func TestGreedyClusterInfeasibleP(t *testing.T) {
	// Confidential attribute with one distinct value: Condition 1 fires.
	sch := table.MustSchema(
		table.Field{Name: "Q", Type: table.String},
		table.Field{Name: "S", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"a", "x"}, {"b", "x"}, {"c", "x"}, {"d", "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GreedyCluster(tbl, ClusterConfig{
		QIs: []string{"Q"}, Confidential: []string{"S"}, K: 2, P: 2,
	}); err == nil || !strings.Contains(err.Error(), "necessary condition 1") {
		t.Errorf("err = %v, want condition-1 failure", err)
	}
}

func TestGreedyClusterValidation(t *testing.T) {
	tbl := figure3Table(t)
	cases := []ClusterConfig{
		{QIs: []string{"Sex"}, K: 1, P: 1},
		{QIs: []string{"Sex"}, K: 3, P: 0},
		{QIs: []string{"Sex"}, K: 3, P: 4},
		{QIs: nil, K: 3, P: 1},
		{QIs: []string{"Sex"}, K: 3, P: 2},
		{QIs: []string{"Missing"}, K: 3, P: 1},
		{QIs: []string{"Sex"}, Confidential: []string{"Missing"}, K: 3, P: 2},
		{QIs: []string{"Sex"}, K: 99, P: 1},
	}
	for i, cfg := range cases {
		if _, err := GreedyCluster(tbl, cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

// TestGreedyClusterDispersal: a table where the final records cannot
// seed a valid cluster must disperse them instead of failing.
func TestGreedyClusterDispersal(t *testing.T) {
	// 5 rows, k=2: two clusters of 2 plus one leftover dispersed.
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "S", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"20", "a"}, {"21", "b"}, {"60", "a"}, {"61", "b"}, {"90", "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := GreedyCluster(tbl, ClusterConfig{
		QIs: []string{"Age"}, Confidential: []string{"S"}, K: 2, P: 2,
	})
	if err != nil {
		t.Fatalf("GreedyCluster: %v", err)
	}
	if res.Dispersed != 1 {
		t.Errorf("dispersed = %d, want 1", res.Dispersed)
	}
	chk, err := core.Check(res.Masked, []string{"Age"}, []string{"S"}, 2, 2)
	if err != nil || !chk.Satisfied {
		t.Errorf("post-dispersal property: %+v, %v", chk, err)
	}
}

// TestGreedyClusterOnAdult: property holds on a realistic workload and
// information loss beats full-domain generalization.
func TestGreedyClusterOnAdult(t *testing.T) {
	src, err := dataset.Generate(5000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	im, err := src.Sample(600, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GreedyCluster(im, ClusterConfig{
		QIs: dataset.QIs(), Confidential: dataset.Confidential(), K: 4, P: 2,
	})
	if err != nil {
		t.Fatalf("GreedyCluster: %v", err)
	}
	chk, err := core.Check(res.Masked, dataset.QIs(), dataset.Confidential(), 2, 4)
	if err != nil || !chk.Satisfied {
		t.Errorf("Adult clustering property: %+v, %v", chk, err)
	}
	if res.Clusters < 10 {
		t.Errorf("clusters = %d; expected a fine partition on 600 rows", res.Clusters)
	}
}

// TestAllMinimalMatchesExhaustive: predictive tagging must return
// exactly the minimal antichain the assumption-free Exhaustive finds,
// while evaluating no more nodes.
func TestAllMinimalMatchesExhaustive(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for ts := 0; ts <= 10; ts += 2 {
			cfg := kOnlyConfig(t, ts)
			cfg.P = p
			ex, err := Run(tbl, cfg, StrategyExhaustive)
			if err != nil {
				t.Fatal(err)
			}
			am, err := AllMinimal(tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			exSet := make(map[string]bool)
			for _, m := range ex.Minimal {
				exSet[m.Node.Key()] = true
			}
			amSet := make(map[string]bool)
			for _, m := range am.Minimal {
				amSet[m.Node.Key()] = true
			}
			if len(exSet) != len(amSet) {
				t.Errorf("p=%d TS=%d: exhaustive %v vs tagged %v", p, ts, exSet, amSet)
				continue
			}
			for k := range exSet {
				if !amSet[k] {
					t.Errorf("p=%d TS=%d: missing minimal <%s>", p, ts, k)
				}
			}
			if am.Stats.NodesEvaluated > ex.Stats.NodesEvaluated {
				t.Errorf("p=%d TS=%d: tagging evaluated more nodes (%d > %d)",
					p, ts, am.Stats.NodesEvaluated, ex.Stats.NodesEvaluated)
			}
		}
	}
}

// TestAllMinimalSkipsUpSet: once the bottom satisfies, only one node is
// evaluated.
func TestAllMinimalSkipsUpSet(t *testing.T) {
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"M", "41076", "Flu"}, {"M", "41076", "Cold"}, {"M", "41076", "Flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := kOnlyConfig(t, 0)
	res, err := AllMinimal(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Minimal) != 1 || res.Minimal[0].Node.Height() != 0 {
		t.Fatalf("minimal = %v", res.Minimal)
	}
	if res.Stats.NodesEvaluated != 1 {
		t.Errorf("evaluated %d nodes, want 1 (bottom satisfies, rest tagged)", res.Stats.NodesEvaluated)
	}
	// All 6 nodes satisfy.
	if len(res.Satisfying) != 6 {
		t.Errorf("satisfying = %d, want 6", len(res.Satisfying))
	}
}

func TestAllMinimalInfeasible(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 10)
	cfg.P = 4
	cfg.K = 4
	res, err := AllMinimal(tbl, cfg)
	if err != nil || len(res.Minimal) != 0 || res.Stats.PrunedCondition1 != 1 {
		t.Errorf("infeasible: %+v, %v", res.Stats, err)
	}
}

// illnessTaxonomy groups diseases into categories for extended tests.
func illnessTaxonomy(t *testing.T) hierarchy.Hierarchy {
	t.Helper()
	h, err := hierarchy.NewTree("Illness", map[string][]string{
		"Colon Cancer":   {"Cancer"},
		"Lung Cancer":    {"Cancer"},
		"Stomach Cancer": {"Cancer"},
		"Flu":            {"Infection"},
		"HIV":            {"Infection"},
		"Asthma":         {"Chronic"},
		"Diabetes":       {"Chronic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func similarityData(t *testing.T) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "Illness", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"20", "Colon Cancer"}, {"21", "Lung Cancer"}, {"22", "Stomach Cancer"},
		{"30", "Flu"}, {"31", "Diabetes"}, {"32", "Colon Cancer"},
		{"40", "HIV"}, {"41", "Flu"}, {"42", "Asthma"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestGreedyClusterExtendedConstraint: without the constraint the
// nearest-neighbour clusters put the three cancers together; with it,
// every cluster mixes categories.
func TestGreedyClusterExtendedConstraint(t *testing.T) {
	tbl := similarityData(t)
	tax := illnessTaxonomy(t)
	base := ClusterConfig{
		QIs: []string{"Age"}, Confidential: []string{"Illness"}, K: 3, P: 2,
	}

	plain, err := GreedyCluster(tbl, base)
	if err != nil {
		t.Fatalf("plain cluster: %v", err)
	}
	plainExt, err := core.CheckExtended(plain.Masked, []string{"Age"}, "Illness", 2, 3,
		core.ExtendedConfig{Hierarchy: tax, MaxLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plainExt {
		t.Skip("plain clustering happened to satisfy the extended property; constraint untestable on this data")
	}

	ext := base
	ext.Extended = []ExtendedConstraint{{Attr: "Illness", Hierarchy: tax, MaxLevel: 1}}
	res, err := GreedyCluster(tbl, ext)
	if err != nil {
		t.Fatalf("extended cluster: %v", err)
	}
	ok, err := core.CheckExtended(res.Masked, []string{"Age"}, "Illness", 2, 3,
		core.ExtendedConfig{Hierarchy: tax, MaxLevel: 1})
	if err != nil || !ok {
		t.Errorf("extended clustering output fails the extended property: %v", err)
	}
	// Plain p-sensitivity also holds.
	chk, err := core.Check(res.Masked, []string{"Age"}, []string{"Illness"}, 2, 3)
	if err != nil || !chk.Satisfied {
		t.Errorf("plain property: %+v, %v", chk, err)
	}
}

func TestGreedyClusterExtendedValidation(t *testing.T) {
	tbl := similarityData(t)
	tax := illnessTaxonomy(t)
	base := ClusterConfig{QIs: []string{"Age"}, Confidential: []string{"Illness"}, K: 3, P: 2}

	bad := base
	bad.Extended = []ExtendedConstraint{{Attr: "Illness", Hierarchy: nil, MaxLevel: 1}}
	if _, err := GreedyCluster(tbl, bad); err == nil {
		t.Error("nil hierarchy accepted")
	}
	bad = base
	bad.Extended = []ExtendedConstraint{{Attr: "Other", Hierarchy: tax, MaxLevel: 1}}
	if _, err := GreedyCluster(tbl, bad); err == nil {
		t.Error("non-confidential extended attribute accepted")
	}
	bad = base
	bad.Extended = []ExtendedConstraint{{Attr: "Illness", Hierarchy: tax, MaxLevel: 5}}
	if _, err := GreedyCluster(tbl, bad); err == nil {
		t.Error("out-of-range MaxLevel accepted")
	}
	bad = base
	bad.Extended = []ExtendedConstraint{{Attr: "Illness", Hierarchy: tax, MaxLevel: 0}}
	if _, err := GreedyCluster(tbl, bad); err == nil {
		t.Error("MaxLevel 0 accepted (would be a no-op)")
	}
	// Infeasible: p = 4 but only 3 categories.
	bad = base
	bad.K = 4
	bad.P = 4
	bad.Extended = []ExtendedConstraint{{Attr: "Illness", Hierarchy: tax, MaxLevel: 1}}
	if _, err := GreedyCluster(tbl, bad); err == nil {
		t.Error("infeasible category count accepted")
	}
}
