package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"psk/internal/table"
)

// recheckTable builds an n-row table with two QI columns and two
// confidential columns, with cardinalities low enough that subsets of
// groups exercise every verdict branch.
func recheckTable(t *testing.T, rng *rand.Rand, n int) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Q1", Type: table.String},
		table.Field{Name: "Q2", Type: table.String},
		table.Field{Name: "Ill", Type: table.String},
		table.Field{Name: "Inc", Type: table.Int},
	)
	b, err := table.NewBuilder(sch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b.Append(
			table.SV(fmt.Sprintf("q%d", rng.Intn(5))),
			table.SV(fmt.Sprintf("r%d", rng.Intn(3))),
			table.SV(fmt.Sprintf("ill%d", rng.Intn(4))),
			table.IV(int64(rng.Intn(6))),
		)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func recheckView(t *testing.T, tbl *table.Table) StatsView {
	t.Helper()
	v, err := NewStatsView(tbl, []string{"Q1", "Q2"}, []string{"Ill", "Inc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func allGroups(v StatsView) []int {
	out := make([]int, len(v.Stats.Groups))
	for i := range out {
		out[i] = i
	}
	return out
}

// localPolicies enumerates every built-in group-local policy at
// parameters that produce a mix of satisfied and violated verdicts on
// random microdata.
func localPolicies() []Policy {
	return []Policy{
		KAnonymityPolicy{K: 2},
		KAnonymityPolicy{K: 4},
		PSensitivityPolicy{P: 2},
		PSensitivityPolicy{P: 3, Attrs: []string{"Ill"}},
		PSensitiveKAnonymityPolicy{P: 2, K: 3},
		DistinctLDiversityPolicy{Attr: "Ill", L: 2},
		EntropyLDiversityPolicy{Attr: "Ill", L: 2},
		RecursiveLDiversityPolicy{Attr: "Ill", C: 1.5, L: 2},
		PAlphaPolicy{P: 2, K: 2, Alpha: 0.6},
	}
}

// TestRecheckGroupsFullSubsetMatchesEvaluate: over the full group set,
// RecheckGroups must reproduce Evaluate bit for bit — first violating
// group, reason, attribute and all — for every group-local policy,
// for compositions, and for bounds wrappers.
func TestRecheckGroupsFullSubsetMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		v := recheckView(t, recheckTable(t, rng, 40+40*round))
		full := allGroups(v)
		policies := localPolicies()
		policies = append(policies,
			All(KAnonymityPolicy{K: 2}, PSensitivityPolicy{P: 2}, TClosenessPolicy{Attr: "Ill", T: 0.4}),
			WithBounds(PSensitiveKAnonymityPolicy{P: 2, K: 2}, Bounds{MaxP: 4, MaxGroups: 10, P: 2}),
			WithBounds(PSensitiveKAnonymityPolicy{P: 5, K: 2}, Bounds{MaxP: 4, MaxGroups: 1 << 30, P: 5}),
			WithBounds(KAnonymityPolicy{K: 2}, Bounds{MaxP: 4, MaxGroups: 2, P: 2}),
		)
		for _, p := range policies {
			want, err := p.Evaluate(v)
			if err != nil {
				t.Fatal(err)
			}
			got, local, err := RecheckGroups(p, v, full)
			if err != nil {
				t.Fatal(err)
			}
			if !local {
				t.Errorf("round %d, %s: recheck took the full-scan path", round, p.Name())
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d, %s: RecheckGroups(all) = %+v, Evaluate = %+v", round, p.Name(), got, want)
			}
		}
	}
}

// TestRecheckGroupsSubsetFindsViolation: when the only violating
// groups are inside the subset, the subset verdict matches the full
// one; a subset of satisfied groups reads satisfied.
func TestRecheckGroupsSubsetFindsViolation(t *testing.T) {
	v := StatsView{
		Conf: []string{"Ill"},
		Stats: &table.GroupStats{NumRows: 9, NumQI: 1, NumConf: 1, Groups: []table.GroupStat{
			{Codes: []int{0}, Size: 3, Hists: []table.CodeHist{{{Code: 0, Count: 2}, {Code: 1, Count: 1}}}},
			{Codes: []int{1}, Size: 1, Hists: []table.CodeHist{{{Code: 0, Count: 1}}}}, // below k, 1 distinct
			{Codes: []int{2}, Size: 5, Hists: []table.CodeHist{{{Code: 1, Count: 3}, {Code: 2, Count: 2}}}},
		}},
	}
	p := PSensitiveKAnonymityPolicy{P: 2, K: 2}
	want, err := p.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RecheckGroups(p, v, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subset holding the violator: got %+v, want %+v", got, want)
	}
	ok, _, err := RecheckGroups(p, v, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Satisfied || ok.Groups != 3 || ok.Group != -1 {
		t.Fatalf("satisfied subset misreported: %+v", ok)
	}
	if _, _, err := RecheckGroups(p, v, []int{3}); err == nil {
		t.Fatal("out-of-range group index accepted")
	}
}

// TestRecheckGroupsDispatch: local policies take the fast path,
// t-closeness (alone or as the sole member under observation) falls
// back to a full evaluation with an identical verdict.
func TestRecheckGroupsDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := recheckView(t, recheckTable(t, rng, 60))
	sub := []int{0}

	res, local, err := RecheckGroups(KAnonymityPolicy{K: 2}, v, sub)
	if err != nil || !local {
		t.Fatalf("k-anonymity recheck: local=%v err=%v", local, err)
	}
	if res.Groups != len(v.Stats.Groups) {
		t.Fatalf("subset verdict reports %d groups, view has %d", res.Groups, len(v.Stats.Groups))
	}

	tc := TClosenessPolicy{Attr: "Ill", T: 0.3}
	res, local, err = RecheckGroups(tc, v, sub)
	if err != nil {
		t.Fatal(err)
	}
	if local {
		t.Fatal("t-closeness took the group-local fast path")
	}
	want, err := tc.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("t-closeness fallback verdict differs: %+v vs %+v", res, want)
	}

	// A conjunction with a non-local member still dispatches as local;
	// the member is fully evaluated inside.
	comp := All(KAnonymityPolicy{K: 2}, tc)
	res, local, err = RecheckGroups(comp, v, allGroups(v))
	if err != nil || !local {
		t.Fatalf("composite recheck: local=%v err=%v", local, err)
	}
	if want, _ := comp.Evaluate(v); !reflect.DeepEqual(res, want) {
		t.Fatalf("composite recheck verdict differs: %+v vs %+v", res, want)
	}
}

// TestBoundsFromStatsMatchesComputeBounds: bounds refreshed from group
// statistics must equal bounds computed from the table they describe,
// across p values on both sides of feasibility.
func TestBoundsFromStatsMatchesComputeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	conf := []string{"Ill", "Inc"}
	for round := 0; round < 4; round++ {
		tbl := recheckTable(t, rng, 30+60*round)
		stats, err := tbl.GroupStats([]string{"Q1", "Q2"}, conf, 1)
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 6; p++ {
			want, err := ComputeBounds(tbl, conf, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BoundsFromStats(stats, p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("round %d p=%d: BoundsFromStats = %+v, ComputeBounds = %+v", round, p, got, want)
			}
		}
	}
	if _, err := BoundsFromStats(nil, 2); err == nil {
		t.Fatal("nil stats accepted")
	}
	if _, err := BoundsFromStats(&table.GroupStats{NumQI: 1}, 2); err == nil {
		t.Fatal("conf-free stats accepted")
	}
	if _, err := BoundsFromStats(&table.GroupStats{NumConf: 1}, 0); err == nil {
		t.Fatal("p = 0 accepted")
	}
}

// TestBoundsFromTotalsMatchesCumulative: the one Condition 1–2 formula,
// which reads each attribute's largest counts without sorting them,
// must equal the paper's formula over CFMax's sorted cumulative
// frequencies whatever order the counts come in, for BoundsFromTotals
// and for MaxGroups one p past maxP, and must allocate nothing.
func TestBoundsFromTotalsMatchesCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	conf := []string{"Ill", "Inc"}
	for round := 0; round < 6; round++ {
		tbl := recheckTable(t, rng, 5+40*round)
		n := tbl.NumRows()
		cf, err := CFMax(tbl, conf)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tbl.GroupStats([]string{"Q1"}, conf, 1)
		if err != nil {
			t.Fatal(err)
		}
		totals := stats.Totals()
		for _, h := range totals {
			rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
		}
		for p := 1; p <= len(cf)+2; p++ {
			// The paper's formula, wherever every cf_{p-i} is defined.
			ref := n
			for i := 1; i <= p-1 && p-1 <= len(cf); i++ {
				ref = min(ref, max((n-cf[p-i-1])/i, 0))
			}
			want := Bounds{MaxP: len(cf), P: p}
			if p <= len(cf) {
				want.MaxGroups = ref
			}
			if got, err := BoundsFromTotals(totals, n, p); err != nil || got != want {
				t.Fatalf("round %d p=%d: BoundsFromTotals = %+v (err %v), want %+v", round, p, got, err, want)
			}
			got, err := MaxGroups(tbl, conf, p)
			if p-1 > len(cf) {
				if err == nil {
					t.Fatalf("round %d: MaxGroups accepted p = %d past maxP = %d + 1", round, p, len(cf))
				}
			} else if err != nil || got != ref {
				t.Fatalf("round %d p=%d: MaxGroups = %d (err %v), want %d", round, p, got, err, ref)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = BoundsFromTotals(totals, n, len(cf)) }); allocs != 0 {
			t.Fatalf("BoundsFromTotals allocates %.0f times per call", allocs)
		}
	}
	if _, err := BoundsFromTotals(nil, 3, 2); err == nil {
		t.Fatal("no confidential attributes accepted")
	}
	if _, err := BoundsFromTotals([]table.CodeHist{{{Code: 0, Count: 3}}}, 3, 0); err == nil {
		t.Fatal("p = 0 accepted")
	}
}
