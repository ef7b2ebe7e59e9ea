package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"psk/internal/table"
)

// The policies are the single verdict implementation per property; the
// tests below pin them against independent row-scanning oracles built
// on GroupBy and per-group value counts (a data path that never touches
// the code histograms), and against the legacy table-based wrappers — the
// regression net that keeps one-implementation-per-property honest.

var statIllnesses = []string{"Colon Cancer", "Lung Cancer", "Stomach Cancer", "Flu", "HIV", "Diabetes"}

// randomStatsTable builds an n-row table with two QI columns and two
// confidential columns (Illness drawn from the extended-check fixture's
// domain so the same table serves the hierarchy tests).
func randomStatsTable(t testing.TB, rng *rand.Rand, n int) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Zip", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
		table.Field{Name: "Income", Type: table.Int},
	)
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("4%d", rng.Intn(4)),
			[]string{"M", "F"}[rng.Intn(2)],
			statIllnesses[rng.Intn(len(statIllnesses))],
			fmt.Sprintf("%d", 10*rng.Intn(4)),
		}
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// rowOracle precomputes, from raw rows, everything the per-property
// oracles need: group row sets in first-appearance order (the same
// order GroupStats scans in) and per-(group, attribute) value counts.
type rowOracle struct {
	sizes  []int
	counts [][]map[string]int // [group][confIdx] value -> count
}

func buildRowOracle(t *testing.T, tbl *table.Table, qis, conf []string) rowOracle {
	t.Helper()
	groups, err := tbl.GroupBy(qis...)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]table.Column, len(conf))
	for i, attr := range conf {
		c, err := tbl.Column(attr)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = c
	}
	o := rowOracle{}
	for _, g := range groups {
		o.sizes = append(o.sizes, g.Size())
		per := make([]map[string]int, len(conf))
		for a := range conf {
			per[a] = make(map[string]int)
			for _, r := range g.Rows {
				per[a][cols[a].Value(r).Str()]++
			}
		}
		o.counts = append(o.counts, per)
	}
	return o
}

func (o rowOracle) distinct(g, a int) int { return len(o.counts[g][a]) }

func (o rowOracle) firstBelowK(k int) int {
	for g, s := range o.sizes {
		if s < k {
			return g
		}
	}
	return -1
}

func (o rowOracle) firstLowDistinct(attrs []int, p int) (int, int) {
	for g := range o.sizes {
		for _, a := range attrs {
			if o.distinct(g, a) < p {
				return g, a
			}
		}
	}
	return -1, -1
}

func (o rowOracle) entropy(g, a int) float64 {
	e, n := 0.0, float64(o.sizes[g])
	for _, c := range o.counts[g][a] {
		pr := float64(c) / n
		e -= pr * math.Log(pr)
	}
	return e
}

func (o rowOracle) maxCount(g, a int) int {
	m := 0
	for _, c := range o.counts[g][a] {
		if c > m {
			m = c
		}
	}
	return m
}

// variational distance of group g's attribute-a distribution from the
// whole-table distribution (half L1).
func (o rowOracle) distance(g, a int) float64 {
	global := make(map[string]float64)
	n := 0.0
	for gi := range o.sizes {
		for v, c := range o.counts[gi][a] {
			global[v] += float64(c)
		}
		n += float64(o.sizes[gi])
	}
	d := 0.0
	for v, c := range global {
		d += math.Abs(c/n - float64(o.counts[g][a][v])/float64(o.sizes[g]))
	}
	return d / 2
}

func mustEval(t *testing.T, p Policy, v StatsView) Result {
	t.Helper()
	res, err := p.Evaluate(v)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return res
}

// TestPoliciesMatchRowOracles: every policy must agree — verdict and
// first violating (group, attribute) — with an independent row-scanning
// oracle, and with its legacy table-based wrapper, on randomized tables
// at several worker counts. The table-based measurements (Sensitivity,
// AttributeDisclosures, ExtendedSensitivity) are pinned to the oracles
// directly.
func TestPoliciesMatchRowOracles(t *testing.T) {
	qis := []string{"Zip", "Sex"}
	conf := []string{"Illness", "Income"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := randomStatsTable(t, rng, 20+rng.Intn(150))
		v, err := NewStatsView(tbl, qis, conf, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		o := buildRowOracle(t, tbl, qis, conf)

		// k-anonymity.
		for _, k := range []int{2, 3, 5} {
			res := mustEval(t, KAnonymityPolicy{K: k}, v)
			wantG := o.firstBelowK(k)
			if res.Satisfied != (wantG == -1) || res.Group != wantG {
				t.Errorf("seed %d: %d-anonymity = (%v, group %d), oracle group %d",
					seed, k, res.Satisfied, res.Group, wantG)
			}
			legacy, err := IsKAnonymous(tbl, qis, k)
			if err != nil || legacy != res.Satisfied {
				t.Errorf("seed %d: IsKAnonymous(%d) = %v, %v; policy %v", seed, k, legacy, err, res.Satisfied)
			}
		}

		// Sensitivity: the smallest distinct count over (group,
		// attribute) pairs; attribute disclosures: the pairs below p.
		wantSens := -1
		for g := range o.sizes {
			for a := range conf {
				if d := o.distinct(g, a); wantSens == -1 || d < wantSens {
					wantSens = d
				}
			}
		}
		if sens, err := Sensitivity(tbl, qis, conf); err != nil || sens != wantSens {
			t.Errorf("seed %d: Sensitivity = %d, %v; oracle %d", seed, sens, err, wantSens)
		}

		// p-sensitivity and p-sensitive k-anonymity.
		for _, p := range []int{1, 2, 3} {
			wantDisc := 0
			for g := range o.sizes {
				for a := range conf {
					if o.distinct(g, a) < p {
						wantDisc++
					}
				}
			}
			if disc, err := AttributeDisclosures(tbl, qis, conf, p); err != nil || disc != wantDisc {
				t.Errorf("seed %d: AttributeDisclosures(%d) = %d, %v; oracle %d", seed, p, disc, err, wantDisc)
			}

			res := mustEval(t, PSensitivityPolicy{P: p}, v)
			wantG, wantA := o.firstLowDistinct([]int{0, 1}, p)
			if res.Satisfied != (wantG == -1) || res.Group != wantG || res.Attr != wantA {
				t.Errorf("seed %d: %d-sensitivity = (%v, group %d, attr %d), oracle (%d, %d)",
					seed, p, res.Satisfied, res.Group, res.Attr, wantG, wantA)
			}
			named := mustEval(t, PSensitivityPolicy{P: p, Attrs: []string{"Income"}}, v)
			ng, _ := o.firstLowDistinct([]int{1}, p)
			if named.Satisfied != (ng == -1) || named.Group != ng {
				t.Errorf("seed %d: %d-sensitivity(Income) = (%v, %d), oracle %d",
					seed, p, named.Satisfied, named.Group, ng)
			}

			for _, k := range []int{maxInt(2, p), p + 2} {
				pk := mustEval(t, PSensitiveKAnonymityPolicy{P: p, K: k}, v)
				want := o.firstBelowK(k) == -1
				if wg, _ := o.firstLowDistinct([]int{0, 1}, p); wg != -1 {
					want = false
				}
				if pk.Satisfied != want {
					t.Errorf("seed %d: %d-sensitive-%d-anonymity = %v, oracle %v", seed, p, k, pk.Satisfied, want)
				}
				legacy, err := CheckBasic(tbl, qis, conf, p, k)
				if err != nil || legacy != pk.Satisfied {
					t.Errorf("seed %d: CheckBasic(%d,%d) = %v, %v; policy %v", seed, p, k, legacy, err, pk.Satisfied)
				}
				withBounds, err := Check(tbl, qis, conf, p, k)
				if err != nil || withBounds.Satisfied != pk.Satisfied {
					t.Errorf("seed %d: Check(%d,%d) = %v, %v; policy %v",
						seed, p, k, withBounds.Satisfied, err, pk.Satisfied)
				}
			}
		}

		// Distinct and entropy l-diversity on each confidential attribute.
		for a, attr := range conf {
			for _, l := range []int{1, 2, 3, 4} {
				res := mustEval(t, DistinctLDiversityPolicy{Attr: attr, L: l}, v)
				wantG, _ := o.firstLowDistinct([]int{a}, l)
				if res.Satisfied != (wantG == -1) || res.Group != wantG {
					t.Errorf("seed %d: distinct-%d-diversity(%s) = (%v, %d), oracle %d",
						seed, l, attr, res.Satisfied, res.Group, wantG)
				}
				legacy, err := IsDistinctLDiverse(tbl, qis, attr, l)
				if err != nil || legacy != res.Satisfied {
					t.Errorf("seed %d: IsDistinctLDiverse(%s,%d) = %v, %v; policy %v",
						seed, attr, l, legacy, err, res.Satisfied)
				}

				ent := mustEval(t, EntropyLDiversityPolicy{Attr: attr, L: l}, v)
				wantEnt := -1
				for g := range o.sizes {
					if o.entropy(g, a)+1e-12 < math.Log(float64(l)) {
						wantEnt = g
						break
					}
				}
				if ent.Satisfied != (wantEnt == -1) || ent.Group != wantEnt {
					t.Errorf("seed %d: entropy-%d-diversity(%s) = (%v, %d), oracle %d",
						seed, l, attr, ent.Satisfied, ent.Group, wantEnt)
				}
				legacyEnt, err := IsEntropyLDiverse(tbl, qis, attr, l)
				if err != nil || legacyEnt != ent.Satisfied {
					t.Errorf("seed %d: IsEntropyLDiverse(%s,%d) = %v, %v; policy %v",
						seed, attr, l, legacyEnt, err, ent.Satisfied)
				}
			}

			// Recursive (c, l)-diversity.
			for _, c := range []float64{1, 2, 4} {
				for _, l := range []int{2, 3} {
					res := mustEval(t, RecursiveLDiversityPolicy{Attr: attr, C: c, L: l}, v)
					want := -1
					for g := range o.sizes {
						var counts []int
						for _, n := range o.counts[g][a] {
							counts = append(counts, n)
						}
						sort.Sort(sort.Reverse(sort.IntSlice(counts)))
						tail := 0
						for j := l - 1; j < len(counts); j++ {
							tail += counts[j]
						}
						if !(float64(counts[0]) < c*float64(tail)) {
							want = g
							break
						}
					}
					if res.Satisfied != (want == -1) || res.Group != want {
						t.Errorf("seed %d: recursive-(%g,%d)(%s) = (%v, %d), oracle %d",
							seed, c, l, attr, res.Satisfied, res.Group, want)
					}
				}
			}

			// t-closeness: the policy threshold must match the measured
			// worst distance, which must match the oracle's.
			worst, err := TCloseness(tbl, qis, attr)
			if err != nil {
				t.Fatal(err)
			}
			oracleWorst := 0.0
			for g := range o.sizes {
				if d := o.distance(g, a); d > oracleWorst {
					oracleWorst = d
				}
			}
			if math.Abs(worst-oracleWorst) > 1e-9 {
				t.Errorf("seed %d: TCloseness(%s) = %g, oracle %g", seed, attr, worst, oracleWorst)
			}
			for _, tt := range []float64{0, 0.2, 0.5, 1} {
				res := mustEval(t, TClosenessPolicy{Attr: attr, T: tt}, v)
				if res.Satisfied != (oracleWorst <= tt+1e-12) {
					t.Errorf("seed %d: %g-closeness(%s) = %v, worst %g", seed, tt, attr, res.Satisfied, oracleWorst)
				}
			}

			// (p, alpha)-sensitivity.
			for _, alpha := range []float64{0.4, 0.7, 1} {
				p, k := 2, 2
				res := mustEval(t, PAlphaPolicy{P: p, K: k, Alpha: alpha, Attrs: []string{attr}}, v)
				want := o.firstBelowK(k) == -1
				if want {
					for g := range o.sizes {
						if o.distinct(g, a) < p || float64(o.maxCount(g, a)) > alpha*float64(o.sizes[g]) {
							want = false
							break
						}
					}
				}
				if res.Satisfied != want {
					t.Errorf("seed %d: (%d,%g)-sensitivity(%s) = %v, oracle %v",
						seed, p, alpha, attr, res.Satisfied, want)
				}
				legacy, err := CheckPAlpha(tbl, qis, []string{attr}, p, k, alpha)
				if err != nil || legacy != res.Satisfied {
					t.Errorf("seed %d: CheckPAlpha(%s,%g) = %v, %v; policy %v",
						seed, attr, alpha, legacy, err, res.Satisfied)
				}
			}
		}

		// Extended p-sensitivity against a hierarchy-walking oracle over
		// the similarity-attack hierarchy on Illness: each group's ground
		// values are generalized label by label at levels 0 and 1.
		h := illnessHierarchy(t)
		cfg := ExtendedConfig{Hierarchy: h, MaxLevel: 1}
		wantExt := -1
		for g := range o.sizes {
			for lvl := 0; lvl <= cfg.MaxLevel; lvl++ {
				labels := make(map[string]bool)
				for val := range o.counts[g][0] {
					label, err := h.Generalize(val, lvl)
					if err != nil {
						t.Fatal(err)
					}
					labels[label] = true
				}
				if wantExt == -1 || len(labels) < wantExt {
					wantExt = len(labels)
				}
			}
		}
		if ext, err := ExtendedSensitivity(tbl, qis, "Illness", cfg); err != nil || ext != wantExt {
			t.Errorf("seed %d: ExtendedSensitivity = %d, %v; oracle %d", seed, ext, err, wantExt)
		}
		levelMaps, err := ConfLevelMaps(tbl, "Illness", h, cfg.MaxLevel)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3} {
			for p := 1; p <= k; p++ {
				want := o.firstBelowK(k) == -1 && wantExt >= p
				res := mustEval(t, ExtendedPolicy{Attr: "Illness", P: p, K: k, MaxLevel: cfg.MaxLevel, LevelMaps: levelMaps}, v)
				if res.Satisfied != want {
					t.Errorf("seed %d: extended-%d-sensitive-%d-anonymity = %v, oracle %v", seed, p, k, res.Satisfied, want)
				}
				legacy, err := CheckExtended(tbl, qis, "Illness", p, k, cfg)
				if err != nil || legacy != want {
					t.Errorf("seed %d: CheckExtended(p=%d,k=%d) = %v, %v; oracle %v", seed, p, k, legacy, err, want)
				}
			}
		}
	}
}

// TestAllConjunction pins All's semantics: first-failure-wins verdict,
// union of confidential attributes, and the composed name.
func TestAllConjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tbl := randomStatsTable(t, rng, 60)
	qis := []string{"Zip", "Sex"}
	conf := []string{"Illness", "Income"}
	v, err := NewStatsView(tbl, qis, conf, 1)
	if err != nil {
		t.Fatal(err)
	}

	// An impossible member makes the conjunction fail with its reason,
	// regardless of the satisfied members around it. 1-sensitivity holds
	// for every non-empty group, so it is the always-true member.
	always := PSensitivityPolicy{P: 1}
	never := DistinctLDiversityPolicy{Attr: "Illness", L: 100}
	res := mustEval(t, All(always, never, always), v)
	if res.Satisfied || res.Reason != NotLDiverse {
		t.Errorf("conjunction = %+v, want first failure NotLDiverse", res)
	}
	// Order decides which failure reports.
	res = mustEval(t, All(TClosenessPolicy{Attr: "Income", T: 0}, never), v)
	if res.Satisfied || res.Reason != NotTClose {
		t.Errorf("conjunction = %+v, want NotTClose first", res)
	}
	// All satisfied -> satisfied, with the group count filled in.
	res = mustEval(t, All(always, PSensitivityPolicy{P: 1, Attrs: []string{"Income"}}), v)
	if !res.Satisfied || res.Groups != v.Stats.NumGroups() {
		t.Errorf("satisfied conjunction = %+v", res)
	}
	// Empty conjunction is trivially satisfied.
	if res := mustEval(t, All(), v); !res.Satisfied {
		t.Errorf("All() = %+v", res)
	}
	// One member: All is the identity.
	if got := All(never); got.Name() != never.Name() {
		t.Errorf("All(p).Name() = %q", got.Name())
	}

	comp := All(PSensitiveKAnonymityPolicy{P: 2, K: 3}, never)
	if name := comp.Name(); !strings.Contains(name, "all(") || !strings.Contains(name, " and ") {
		t.Errorf("composite name = %q", name)
	}
	if attrs := comp.ConfAttrs(); len(attrs) != 1 || attrs[0] != "Illness" {
		t.Errorf("composite ConfAttrs = %v", attrs)
	}
}

// TestWithBoundsPolicy pins the prefilter wrapper: Condition 1 and 2
// rejections carry the bounds and skip the inner policy; a pass-through
// result is the inner verdict with the bounds stamped on.
func TestWithBoundsPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := randomStatsTable(t, rng, 80)
	v, err := NewStatsView(tbl, []string{"Zip", "Sex"}, []string{"Illness"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner := PSensitiveKAnonymityPolicy{P: 2, K: 2}

	res := mustEval(t, WithBounds(inner, Bounds{P: 3, MaxP: 2, MaxGroups: 100}), v)
	if res.Satisfied || res.Reason != FailedCondition1 || res.MaxP != 2 || res.Groups != 0 {
		t.Errorf("condition 1 result = %+v", res)
	}
	res = mustEval(t, WithBounds(inner, Bounds{P: 2, MaxP: 5, MaxGroups: 1}), v)
	if res.Satisfied || res.Reason != FailedCondition2 || res.Groups != v.Stats.NumGroups() {
		t.Errorf("condition 2 result = %+v", res)
	}
	// Permissive bounds: the inner verdict, stamped.
	loose := Bounds{P: 2, MaxP: 5, MaxGroups: 1 << 30}
	got := mustEval(t, WithBounds(inner, loose), v)
	want := mustEval(t, inner, v)
	want.MaxP, want.MaxGroups = loose.MaxP, loose.MaxGroups
	if got != want {
		t.Errorf("pass-through = %+v, want %+v", got, want)
	}
}

// TestPolicyViewErrors: policies naming attributes the view does not
// carry, and attribute-agnostic policies over histogram-free
// statistics, must error rather than misreport.
func TestPolicyViewErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := randomStatsTable(t, rng, 30)
	v, err := NewStatsView(tbl, []string{"Zip"}, []string{"Illness"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (DistinctLDiversityPolicy{Attr: "Nope", L: 2}).Evaluate(v); err == nil {
		t.Error("unknown attribute accepted")
	}
	bare, err := NewStatsView(tbl, []string{"Zip"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (PSensitivityPolicy{P: 2}).Evaluate(bare); err == nil {
		t.Error("p-sensitivity over histogram-free statistics accepted")
	}
	if _, err := (KAnonymityPolicy{K: 0}).Evaluate(v); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := (TClosenessPolicy{Attr: "Illness", T: -1}).Evaluate(v); err == nil {
		t.Error("negative t accepted")
	}
}
