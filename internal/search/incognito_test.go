package search

import (
	"testing"

	"psk/internal/core"
	"psk/internal/dataset"
)

// TestIncognitoMatchesExhaustive: the subset-pruned search must return
// exactly the p-k-minimal antichain of the assumption-free Exhaustive.
func TestIncognitoMatchesExhaustive(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for ts := 0; ts <= 10; ts += 2 {
			cfg := kOnlyConfig(t, ts)
			cfg.P = p
			ex, err := Run(tbl, cfg, StrategyExhaustive)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := Run(tbl, cfg, StrategyIncognito)
			if err != nil {
				t.Fatal(err)
			}
			exSet := make(map[string]bool)
			for _, m := range ex.Minimal {
				exSet[m.Node.Key()] = true
			}
			if len(inc.Minimal) != len(exSet) {
				t.Errorf("p=%d TS=%d: incognito found %d minimal, exhaustive %d",
					p, ts, len(inc.Minimal), len(exSet))
				continue
			}
			for _, m := range inc.Minimal {
				if !exSet[m.Node.Key()] {
					t.Errorf("p=%d TS=%d: spurious minimal %v", p, ts, m.Node)
				}
			}
			if inc.Stats.SubsetsEvaluated != 3 { // {S}, {Z}, {S,Z}
				t.Errorf("subsets evaluated = %d, want 3", inc.Stats.SubsetsEvaluated)
			}
		}
	}
}

// TestIncognitoOnAdult: the 4-attribute Adult lattice exercises the
// 15-subset pruning path; results must agree with AllMinimal, and the
// outputs must satisfy the property.
func TestIncognitoOnAdult(t *testing.T) {
	src, err := dataset.Generate(5000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	im, err := src.Sample(400, 17)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             3,
		P:             2,
		MaxSuppress:   8,
		UseConditions: true,
	}
	inc, err := Run(im, cfg, StrategyIncognito)
	if err != nil {
		t.Fatalf("Incognito: %v", err)
	}
	am, err := AllMinimal(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.SubsetsEvaluated != 15 {
		t.Errorf("subsets = %d, want 15 (2^4 - 1)", inc.Stats.SubsetsEvaluated)
	}
	amSet := make(map[string]bool)
	for _, m := range am.Minimal {
		amSet[m.Node.Key()] = true
	}
	if len(inc.Minimal) != len(amSet) {
		t.Fatalf("incognito %d minimal vs tagged %d", len(inc.Minimal), len(amSet))
	}
	for _, m := range inc.Minimal {
		if !amSet[m.Node.Key()] {
			t.Errorf("node %v not in AllMinimal set", m.Node)
		}
		chk, err := core.Check(m.Masked, cfg.QIs, cfg.Confidential, cfg.P, cfg.K)
		if err != nil || !chk.Satisfied {
			t.Errorf("minimal node %v output fails property: %+v, %v", m.Node, chk, err)
		}
	}
	// Minimal nodes are sorted bottom-up.
	for i := 1; i < len(inc.Minimal); i++ {
		if inc.Minimal[i].Node.Height() < inc.Minimal[i-1].Node.Height() {
			t.Error("minimal nodes not height-sorted")
		}
	}
}

func TestIncognitoInfeasible(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 10)
	cfg.P = 4
	cfg.K = 4
	res, err := Run(tbl, cfg, StrategyIncognito)
	if err != nil || res.Found || res.Stats.PrunedCondition1 != 1 {
		t.Errorf("infeasible: found=%v %+v, %v", res.Found, res.Stats, err)
	}
	// Satisfiable case.
	if res, err = Run(tbl, kOnlyConfig(t, 10), StrategyIncognito); err != nil || !res.Found {
		t.Errorf("satisfiable: found=%v, %v", res.Found, err)
	}
	// Unsatisfiable within budget.
	cfg = kOnlyConfig(t, 0)
	cfg.K = 11
	if res, err = Run(tbl, cfg, StrategyIncognito); err != nil || res.Found || res.Stats.PrunedCondition1 != 0 {
		t.Errorf("unsatisfiable: found=%v %+v, %v", res.Found, res.Stats, err)
	}
}

func TestIncognitoValidation(t *testing.T) {
	tbl := figure3Table(t)
	bad := kOnlyConfig(t, 0)
	bad.K = 1
	if _, err := Run(tbl, bad, StrategyIncognito); err == nil {
		t.Error("k=1 accepted")
	}
}

// TestIncognitoPrunes: on a workload where low nodes fail, the subset
// pass must prune some full-lattice candidates.
func TestIncognitoPrunes(t *testing.T) {
	src, err := dataset.Generate(5000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	im, err := src.Sample(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             5,
		P:             1,
		MaxSuppress:   0,
		UseConditions: true,
	}
	inc, err := Run(im, cfg, StrategyIncognito)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Run(im, cfg, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	// Same answers.
	if len(inc.Minimal) != len(ex.Minimal) {
		t.Errorf("minimal counts differ: %d vs %d", len(inc.Minimal), len(ex.Minimal))
	}
	if inc.Stats.PrunedBySubsets == 0 {
		t.Log("no subset pruning occurred on this sample (acceptable but unexpected)")
	}
}
