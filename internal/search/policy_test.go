package search

import (
	"fmt"
	"math/rand"
	"testing"

	"psk/internal/core"
)

// Composite policies must be drop-in replacements for the built-in
// p-sensitive k-anonymity target: a conjunction that adds only implied
// properties (distinct l-diversity with l <= p) has exactly the same
// satisfying nodes, so every strategy must return byte-identical
// results — nodes, masked microdata, suppression counts and work
// counters — whether it searched via cfg.P/cfg.K or via cfg.Policy.
// Run with -race; the worker loop exercises the parallel engine.

// equivalentPolicy builds the composite with the same solution set as
// the legacy (p, k) configuration.
func equivalentPolicy(p, k int) core.Policy {
	if p <= 1 {
		return core.All(
			core.KAnonymityPolicy{K: k},
			core.DistinctLDiversityPolicy{Attr: "Illness", L: 1},
		)
	}
	return core.All(
		core.PSensitiveKAnonymityPolicy{P: p, K: k},
		core.DistinctLDiversityPolicy{Attr: "Illness", L: p},
	)
}

// TestCompositePolicyMatchesLegacy: all five strategies, randomized
// tables, serial and parallel.
func TestCompositePolicyMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl, base := randomSearchFixture(t, rng, 120+rng.Intn(200))
		base.K = 2 + rng.Intn(3)
		base.P = 1 + rng.Intn(2)
		if base.P > base.K {
			base.P = base.K
		}
		base.MaxSuppress = rng.Intn(15)
		for _, w := range []int{1, 4} {
			legacy := base
			legacy.Workers = w
			composite := legacy
			composite.Policy = equivalentPolicy(base.P, base.K)
			name := fmt.Sprintf("seed=%d w=%d K=%d P=%d TS=%d",
				seed, w, base.K, base.P, base.MaxSuppress)

			for s := range numStrategies {
				a, err := Run(tbl, legacy, s)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Run(tbl, composite, s)
				if err != nil {
					t.Fatal(err)
				}
				if fmtResult(a) != fmtResult(b) {
					t.Errorf("%s: composite policy changed the %s outcome", name, s)
				}
			}
		}
	}
}

// TestBoundedPolicyMatchesConditions: wrapping the composite with
// core.WithBounds must reproduce the UseConditions search outcomes
// (the bounds are necessary conditions, so the solution set is
// unchanged); only the work counters may differ, because the legacy
// path rejects an infeasible Condition 1 before the search starts
// while a bounded policy reports it per evaluated node.
func TestBoundedPolicyMatchesConditions(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl, base := randomSearchFixture(t, rng, 150)
		base.K = 3
		base.P = 2
		base.MaxSuppress = 10
		legacy := base
		legacy.UseConditions = true

		bounds, err := core.ComputeBounds(tbl, base.Confidential, base.P)
		if err != nil {
			t.Fatal(err)
		}
		composite := base
		composite.Policy = core.WithBounds(equivalentPolicy(base.P, base.K), bounds)

		for _, s := range []Strategy{StrategySamarati, StrategyIncognito} {
			a, err := Run(tbl, legacy, s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(tbl, composite, s)
			if err != nil {
				t.Fatal(err)
			}
			if fmtMinimal(a.Minimal) != fmtMinimal(b.Minimal) {
				t.Errorf("seed %d: bounded policy changed the %s solutions", seed, s)
			}
		}
	}
}

// TestStrictCompositeSearch: a conjunction the legacy path cannot
// express (adding t-closeness) must still drive every strategy, and
// whatever masked microdata comes back must actually satisfy the
// policy it searched for.
func TestStrictCompositeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tbl, base := randomSearchFixture(t, rng, 250)
	base.K = 2
	base.MaxSuppress = 10
	pol := core.All(
		core.PSensitiveKAnonymityPolicy{P: 2, K: 2},
		core.TClosenessPolicy{Attr: "Illness", T: 0.5},
	)
	base.Policy = pol

	legacy := base
	legacy.Policy = nil
	legacy.P = 2
	for _, s := range []Strategy{StrategySamarati, StrategyIncognito} {
		r, err := Run(tbl, base, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range r.Minimal {
			v, err := core.NewStatsView(m.Masked, base.QIs, []string{"Illness"}, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pol.Evaluate(v)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Satisfied {
				t.Errorf("%s minimal node <%s> violates the policy: %+v", s, m.Node.Key(), res)
			}
		}
		// The strict target is at least as hard as the legacy one: if the
		// legacy search finds nothing, neither may the strict search.
		lr, err := Run(tbl, legacy, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Found && !lr.Found {
			t.Errorf("strict composite %s found a node the weaker legacy target missed", s)
		}
	}
}
