package core

import (
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/table"
)

var (
	patientQIs  = []string{"Age", "ZipCode", "Sex"}
	patientConf = []string{"Illness", "Income"}
)

// table1 reproduces the paper's Table 1 (2-anonymous patient data).
func table1(t *testing.T) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"50", "43102", "M", "Colon Cancer"},
		{"30", "43102", "F", "Breast Cancer"},
		{"30", "43102", "F", "HIV"},
		{"20", "43102", "M", "Diabetes"},
		{"20", "43102", "M", "Diabetes"},
		{"50", "43102", "M", "Heart Disease"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// table3 reproduces the paper's Table 3 (3-anonymous, 1-sensitive).
func table3(t *testing.T) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
		table.Field{Name: "Income", Type: table.Int},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"20", "43102", "F", "AIDS", "50000"},
		{"20", "43102", "F", "AIDS", "50000"},
		{"20", "43102", "F", "Diabetes", "50000"},
		{"30", "43102", "M", "Diabetes", "30000"},
		{"30", "43102", "M", "Diabetes", "40000"},
		{"30", "43102", "M", "Heart Disease", "30000"},
		{"30", "43102", "M", "Heart Disease", "40000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// table3Fixed is Table 3 with the paper's suggested edit (first tuple's
// income changed to 40,000), which lifts the sensitivity to p = 2.
func table3Fixed(t *testing.T) *table.Table {
	t.Helper()
	tbl := table3(t)
	out, err := tbl.MapColumn("Income", func(v table.Value) (string, error) {
		return v.Str(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with the edit: simplest is to reconstruct the rows.
	sch := out.Schema()
	b, _ := table.NewBuilder(sch)
	for r := 0; r < out.NumRows(); r++ {
		row, _ := out.Row(r)
		if r == 0 {
			row[4] = table.SV("40000")
		}
		b.Append(row...)
	}
	fixed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return fixed
}

func TestTable1IsTwoAnonymous(t *testing.T) {
	tbl := table1(t)
	ok, err := IsKAnonymous(tbl, patientQIs, 2)
	if err != nil || !ok {
		t.Errorf("IsKAnonymous(2) = %v, %v; want true", ok, err)
	}
	ok, _ = IsKAnonymous(tbl, patientQIs, 3)
	if ok {
		t.Error("Table 1 should not be 3-anonymous")
	}
	min, err := MinGroupSize(tbl, patientQIs)
	if err != nil || min != 2 {
		t.Errorf("MinGroupSize = %d, %v; want 2", min, err)
	}
}

func TestKAnonymityEdgeCases(t *testing.T) {
	tbl := table1(t)
	if _, err := IsKAnonymous(tbl, patientQIs, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := IsKAnonymous(tbl, []string{"Nope"}, 2); err == nil {
		t.Error("missing QI accepted")
	}
	empty := tbl.Filter(func(int) bool { return false })
	ok, err := IsKAnonymous(empty, patientQIs, 5)
	if err != nil || !ok {
		t.Errorf("empty table k-anonymity = %v, %v; want true", ok, err)
	}
	min, _ := MinGroupSize(empty, patientQIs)
	if min != 0 {
		t.Errorf("empty MinGroupSize = %d", min)
	}
	n, err := TuplesViolatingK(tbl, patientQIs, 3)
	if err != nil || n != 6 {
		t.Errorf("TuplesViolatingK(3) = %d, %v; want 6 (all groups are pairs)", n, err)
	}
	if _, err := TuplesViolatingK(tbl, patientQIs, 0); err == nil {
		t.Error("k=0 accepted by TuplesViolatingK")
	}
}

// TestTable3SensitivityIsOne reproduces the paper's analysis: the first
// group has one distinct income, so the masked microdata satisfies only
// 1-sensitive 3-anonymity.
func TestTable3SensitivityIsOne(t *testing.T) {
	tbl := table3(t)
	ok, err := IsKAnonymous(tbl, patientQIs, 3)
	if err != nil || !ok {
		t.Fatalf("Table 3 should be 3-anonymous: %v, %v", ok, err)
	}
	s, err := Sensitivity(tbl, patientQIs, patientConf)
	if err != nil || s != 1 {
		t.Errorf("Sensitivity = %d, %v; want 1", s, err)
	}
	ok, err = CheckBasic(tbl, patientQIs, patientConf, 2, 3)
	if err != nil || ok {
		t.Errorf("CheckBasic(p=2) = %v, %v; want false", ok, err)
	}
	ok, err = CheckBasic(tbl, patientQIs, patientConf, 1, 3)
	if err != nil || !ok {
		t.Errorf("CheckBasic(p=1) = %v, %v; want true", ok, err)
	}
}

// TestTable3FixedSensitivityIsTwo reproduces the paper's "if the first
// tuple would have income 40,000" edit: sensitivity rises to 2.
func TestTable3FixedSensitivityIsTwo(t *testing.T) {
	tbl := table3Fixed(t)
	s, err := Sensitivity(tbl, patientQIs, patientConf)
	if err != nil || s != 2 {
		t.Errorf("Sensitivity = %d, %v; want 2", s, err)
	}
	ok, err := CheckBasic(tbl, patientQIs, patientConf, 2, 3)
	if err != nil || !ok {
		t.Errorf("CheckBasic(p=2) = %v, %v; want true", ok, err)
	}
	res, err := Check(tbl, patientQIs, patientConf, 2, 3)
	if err != nil || !res.Satisfied || res.Reason != Satisfied {
		t.Errorf("Check = %+v, %v; want satisfied", res, err)
	}
}

func TestPKValidation(t *testing.T) {
	tbl := table3(t)
	cases := []struct{ p, k int }{
		{0, 3},  // p < 1
		{2, 1},  // k < 2
		{4, 3},  // p > k
		{-1, 2}, // negative p
	}
	for _, c := range cases {
		if _, err := CheckBasic(tbl, patientQIs, patientConf, c.p, c.k); err == nil {
			t.Errorf("CheckBasic(p=%d,k=%d) accepted", c.p, c.k)
		}
		if _, err := Check(tbl, patientQIs, patientConf, c.p, c.k); err == nil {
			t.Errorf("Check(p=%d,k=%d) accepted", c.p, c.k)
		}
	}
	if _, err := CheckBasic(tbl, patientQIs, nil, 2, 3); err == nil {
		t.Error("empty confidential list accepted")
	}
	if _, err := Sensitivity(tbl, patientQIs, nil); err == nil {
		t.Error("Sensitivity with no confidential attributes accepted")
	}
}

// heightZero is a hierarchy with no generalization steps, so an
// ExtendedConfig's default MaxLevel (Height - 1) resolves to -1.
type heightZero struct{ hierarchy.Hierarchy }

func (heightZero) Height() int { return 0 }

// TestTableCheckValidation pins the argument validation of the
// table-based checks the unit tests above do not already cover.
func TestTableCheckValidation(t *testing.T) {
	tbl := table3(t)
	for _, c := range []struct{ p, k int }{{0, 3}, {4, 3}} {
		if _, err := CheckWithBounds(tbl, patientQIs, patientConf, c.p, c.k, Bounds{}); err == nil {
			t.Errorf("CheckWithBounds(p=%d,k=%d) accepted", c.p, c.k)
		}
	}
	for _, alpha := range []float64{0, 1.5} {
		if _, err := CheckPAlpha(tbl, patientQIs, patientConf, 2, 3, alpha); err == nil {
			t.Errorf("CheckPAlpha alpha=%g accepted", alpha)
		}
	}
	if _, err := CheckPAlpha(tbl, patientQIs, nil, 2, 3, 0.5); err == nil {
		t.Error("CheckPAlpha with no confidential attributes accepted")
	}
	if _, err := IsDistinctLDiverse(tbl, patientQIs, "Illness", 0); err == nil {
		t.Error("distinct l=0 accepted")
	}
	if _, err := IsEntropyLDiverse(tbl, patientQIs, "Illness", 0); err == nil {
		t.Error("entropy l=0 accepted")
	}
	if _, err := TCloseness(tbl, patientQIs, "Nope"); err == nil {
		t.Error("TCloseness over a missing attribute accepted")
	}

	ill := similarityTable(t, []string{"Flu", "HIV", "Diabetes"})
	flat := ExtendedConfig{Hierarchy: heightZero{illnessHierarchy(t)}, MaxLevel: -1}
	if _, err := CheckExtended(ill, []string{"Zip"}, "Illness", 1, 2, flat); err == nil {
		t.Error("CheckExtended with a negative MaxLevel accepted")
	}
	if _, err := ExtendedSensitivity(ill, []string{"Zip"}, "Illness", flat); err == nil {
		t.Error("ExtendedSensitivity with a negative MaxLevel accepted")
	}
	high := ExtendedConfig{Hierarchy: illnessHierarchy(t), MaxLevel: 9}
	if _, err := ExtendedSensitivity(ill, []string{"Zip"}, "Illness", high); err == nil {
		t.Error("ExtendedSensitivity with MaxLevel beyond the height accepted")
	}
}

// example1Table builds the synthetic 1000-tuple microdata of the
// paper's Example 1 (Tables 5 and 6): three confidential attributes
// with prescribed descending frequency sets. QI columns give every
// tuple the same group (irrelevant to the frequency computations).
func example1Table(t testing.TB) *table.Table {
	t.Helper()
	freqs := map[string][]int{
		"S1": {300, 300, 200, 100, 100},
		"S2": {500, 300, 100, 40, 35, 25},
		"S3": {700, 200, 50, 10, 10, 10, 10, 5, 3, 2},
	}
	sch := table.MustSchema(
		table.Field{Name: "K1", Type: table.Int},
		table.Field{Name: "S1", Type: table.String},
		table.Field{Name: "S2", Type: table.String},
		table.Field{Name: "S3", Type: table.String},
	)
	// Expand each frequency set into a 1000-value column: value v_i
	// repeated f_i times.
	expand := func(name string) []string {
		var out []string
		for i, f := range freqs[name] {
			for j := 0; j < f; j++ {
				out = append(out, name+"-v"+string(rune('a'+i)))
			}
		}
		return out
	}
	s1, s2, s3 := expand("S1"), expand("S2"), expand("S3")
	b, _ := table.NewBuilder(sch)
	for i := 0; i < 1000; i++ {
		b.Append(table.IV(int64(i)), table.SV(s1[i]), table.SV(s2[i]), table.SV(s3[i]))
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestTables5And6FrequencySets verifies the exact frequency and
// cumulative frequency values of the paper's Tables 5 and 6.
func TestTables5And6FrequencySets(t *testing.T) {
	tbl := example1Table(t)

	want := map[string][]int{
		"S1": {300, 300, 200, 100, 100},
		"S2": {500, 300, 100, 40, 35, 25},
		"S3": {700, 200, 50, 10, 10, 10, 10, 5, 3, 2},
	}
	wantCum := map[string][]int{
		"S1": {300, 600, 800, 900, 1000},
		"S2": {500, 800, 900, 940, 975, 1000},
		"S3": {700, 900, 950, 960, 970, 980, 990, 995, 998, 1000},
	}
	for attr, w := range want {
		f, err := FrequencySet(tbl, attr)
		if err != nil {
			t.Fatalf("FrequencySet(%s): %v", attr, err)
		}
		if !equalInts(f, w) {
			t.Errorf("f^%s = %v, want %v", attr, f, w)
		}
		cf := Cumulative(f)
		if !equalInts(cf, wantCum[attr]) {
			t.Errorf("cf^%s = %v, want %v", attr, cf, wantCum[attr])
		}
	}

	// cf_i row of Table 6: max over attributes, defined up to min s_j = 5.
	cf, err := CFMax(tbl, []string{"S1", "S2", "S3"})
	if err != nil {
		t.Fatalf("CFMax: %v", err)
	}
	if !equalInts(cf, []int{700, 900, 950, 960, 1000}) {
		t.Errorf("cf = %v, want [700 900 950 960 1000]", cf)
	}
}

// TestExample1MaxGroups verifies the maxGroups walk-through of Section
// 3: 300 groups for p=2, 100 for p=3, 50 for p=4, 25 for p=5.
func TestExample1MaxGroups(t *testing.T) {
	tbl := example1Table(t)
	conf := []string{"S1", "S2", "S3"}

	maxP, err := MaxP(tbl, conf)
	if err != nil || maxP != 5 {
		t.Fatalf("MaxP = %d, %v; want 5", maxP, err)
	}
	want := map[int]int{2: 300, 3: 100, 4: 50, 5: 25}
	for p, w := range want {
		g, err := MaxGroups(tbl, conf, p)
		if err != nil {
			t.Fatalf("MaxGroups(p=%d): %v", p, err)
		}
		if g != w {
			t.Errorf("MaxGroups(p=%d) = %d, want %d", p, g, w)
		}
	}
	// p = 1 is vacuous: every tuple may form its own group.
	g, err := MaxGroups(tbl, conf, 1)
	if err != nil || g != 1000 {
		t.Errorf("MaxGroups(p=1) = %d, %v; want 1000", g, err)
	}
	// p beyond the cf range is rejected.
	if _, err := MaxGroups(tbl, conf, 7); err == nil {
		t.Error("MaxGroups(p=7) should fail (p > maxP)")
	}
	if _, err := MaxGroups(tbl, conf, 0); err == nil {
		t.Error("MaxGroups(p=0) should fail")
	}
	if _, err := MaxGroups(tbl, nil, 2); err == nil {
		t.Error("MaxGroups with no confidential attributes should fail")
	}
}

func TestComputeBounds(t *testing.T) {
	tbl := example1Table(t)
	conf := []string{"S1", "S2", "S3"}
	b, err := ComputeBounds(tbl, conf, 3)
	if err != nil {
		t.Fatalf("ComputeBounds: %v", err)
	}
	if !b.Feasible() || b.MaxP != 5 || b.MaxGroups != 100 || b.P != 3 {
		t.Errorf("Bounds = %+v", b)
	}
	// Infeasible p.
	b, err = ComputeBounds(tbl, conf, 9)
	if err != nil {
		t.Fatalf("ComputeBounds(9): %v", err)
	}
	if b.Feasible() || b.MaxGroups != 0 {
		t.Errorf("infeasible bounds = %+v", b)
	}
	if _, err := ComputeBounds(tbl, nil, 2); err == nil {
		t.Error("ComputeBounds with no confidential attributes accepted")
	}
}

// TestCheckReasons drives Algorithm 2 through each of its gates.
func TestCheckReasons(t *testing.T) {
	tbl := table3(t)

	// Condition 1: Illness has 3 distinct values, Income has 3; p = 4
	// exceeds maxP = 3 (and p <= k requires k >= 4).
	res, err := Check(tbl, patientQIs, patientConf, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied || res.Reason != FailedCondition1 {
		t.Errorf("p=4 result = %+v, want FailedCondition1", res)
	}

	// Not k-anonymous: k = 4 with groups of 3 and 4.
	res, err = Check(tbl, patientQIs, patientConf, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied || res.Reason != NotKAnonymous {
		t.Errorf("k=4 result = %+v, want NotKAnonymous", res)
	}

	// Not p-sensitive: p=2, k=3 (group 1 has constant income).
	res, err = Check(tbl, patientQIs, patientConf, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied || res.Reason != NotPSensitive {
		t.Errorf("p=2 result = %+v, want NotPSensitive", res)
	}

	// Satisfied: p=1, k=3.
	res, err = Check(tbl, patientQIs, patientConf, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Errorf("p=1 result = %+v, want satisfied", res)
	}
}

// TestCheckCondition2Gate constructs a table that passes Condition 1
// but has more QI-groups than maxGroups allows, so Algorithm 2 must
// reject at the second gate without scanning groups in detail.
func TestCheckCondition2Gate(t *testing.T) {
	sch := table.MustSchema(
		table.Field{Name: "K", Type: table.Int},
		table.Field{Name: "S", Type: table.String},
	)
	b, _ := table.NewBuilder(sch)
	// 10 groups of 2; S has values: one very common (18 rows), one rare
	// (2 rows). maxP = 2; maxGroups for p=2: n - cf_1 = 20 - 18 = 2.
	for g := 0; g < 10; g++ {
		for j := 0; j < 2; j++ {
			s := "common"
			if g == 0 {
				s = "rare"
			}
			b.Append(table.IV(int64(g)), table.SV(s))
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(tbl, []string{"K"}, []string{"S"}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied || res.Reason != FailedCondition2 {
		t.Errorf("result = %+v, want FailedCondition2", res)
	}
	if res.Groups != 10 || res.MaxGroups != 2 {
		t.Errorf("groups = %d, maxGroups = %d; want 10, 2", res.Groups, res.MaxGroups)
	}
}

// TestAlgorithmsAgree: Algorithm 1 and Algorithm 2 must produce the
// same verdict on every (p, k) combination for the paper's tables.
func TestAlgorithmsAgree(t *testing.T) {
	for _, tbl := range []*table.Table{table3(t), table3Fixed(t)} {
		for k := 2; k <= 4; k++ {
			for p := 1; p <= k && p <= 3; p++ {
				basic, err := CheckBasic(tbl, patientQIs, patientConf, p, k)
				if err != nil {
					t.Fatal(err)
				}
				improved, err := Check(tbl, patientQIs, patientConf, p, k)
				if err != nil {
					t.Fatal(err)
				}
				if basic != improved.Satisfied {
					t.Errorf("p=%d k=%d: basic=%v improved=%v (%s)",
						p, k, basic, improved.Satisfied, improved.Reason)
				}
			}
		}
	}
}

func TestAttributeDisclosures(t *testing.T) {
	tbl := table3(t)
	// Group 1 (age 20) has Income constant: one (group, attribute) pair
	// below p=2.
	n, err := AttributeDisclosures(tbl, patientQIs, patientConf, 2)
	if err != nil || n != 1 {
		t.Errorf("AttributeDisclosures(2) = %d, %v; want 1", n, err)
	}
	// At p=3 more pairs fall short: group1 Illness (2), group1 Income
	// (1), group2 Illness (2), group2 Income (2) -> 4 pairs.
	n, err = AttributeDisclosures(tbl, patientQIs, patientConf, 3)
	if err != nil || n != 4 {
		t.Errorf("AttributeDisclosures(3) = %d, %v; want 4", n, err)
	}
	fixed := table3Fixed(t)
	n, _ = AttributeDisclosures(fixed, patientQIs, patientConf, 2)
	if n != 0 {
		t.Errorf("fixed AttributeDisclosures(2) = %d, want 0", n)
	}
	if _, err := AttributeDisclosures(tbl, patientQIs, patientConf, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := AttributeDisclosures(tbl, patientQIs, nil, 2); err == nil {
		t.Error("no confidential attributes accepted")
	}
}

func TestTable1AttributeDisclosure(t *testing.T) {
	// The motivating example: Table 1 is 2-anonymous yet the Diabetes
	// group leaks — exactly one (group, Illness) pair with a constant
	// value.
	tbl := table1(t)
	n, err := AttributeDisclosures(tbl, patientQIs, []string{"Illness"}, 2)
	if err != nil || n != 1 {
		t.Errorf("AttributeDisclosures = %d, %v; want 1 (the Diabetes pair)", n, err)
	}
	s, _ := Sensitivity(tbl, patientQIs, []string{"Illness"})
	if s != 1 {
		t.Errorf("Sensitivity = %d, want 1", s)
	}
}

func TestLDiversity(t *testing.T) {
	tbl := table3(t)
	// Illness: groups have 2 and 2 distinct -> 2-diverse, not 3-diverse.
	ok, err := IsDistinctLDiverse(tbl, patientQIs, "Illness", 2)
	if err != nil || !ok {
		t.Errorf("distinct 2-diverse = %v, %v; want true", ok, err)
	}
	ok, _ = IsDistinctLDiverse(tbl, patientQIs, "Illness", 3)
	if ok {
		t.Error("should not be 3-diverse")
	}
	// Income: group 1 constant -> not 2-diverse.
	ok, _ = IsDistinctLDiverse(tbl, patientQIs, "Income", 2)
	if ok {
		t.Error("Income should not be 2-diverse")
	}
	if _, err := IsDistinctLDiverse(tbl, patientQIs, "Illness", 0); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := IsDistinctLDiverse(tbl, patientQIs, "Nope", 2); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestEntropyLDiversity(t *testing.T) {
	tbl := table3(t)
	// Every group trivially satisfies entropy 1-diversity.
	ok, err := IsEntropyLDiverse(tbl, patientQIs, "Illness", 1)
	if err != nil || !ok {
		t.Errorf("entropy 1-diverse = %v, %v", ok, err)
	}
	// Group 1 has distribution (2/3, 1/3): entropy ~0.636 < log 2, so
	// not entropy 2-diverse.
	ok, _ = IsEntropyLDiverse(tbl, patientQIs, "Illness", 2)
	if ok {
		t.Error("should not be entropy 2-diverse")
	}
	// A uniform 2-value group is exactly entropy 2-diverse: group 2 has
	// Illness (2,2) — build a table with only that group.
	g2 := tbl.Filter(func(r int) bool {
		v, _ := tbl.Value(r, "Age")
		return v.Int() == 30
	})
	ok, err = IsEntropyLDiverse(g2, patientQIs, "Illness", 2)
	if err != nil || !ok {
		t.Errorf("uniform group entropy 2-diverse = %v, %v; want true", ok, err)
	}
	if _, err := IsEntropyLDiverse(tbl, patientQIs, "Illness", 0); err == nil {
		t.Error("l=0 accepted")
	}
}

func TestTCloseness(t *testing.T) {
	tbl := table3(t)
	d, err := TCloseness(tbl, patientQIs, "Income")
	if err != nil {
		t.Fatalf("TCloseness: %v", err)
	}
	// Global income distribution: 50000 x3, 30000 x2, 40000 x2 over 7.
	// Group 1 (all 50000): distance = (|3/7-1| + 2/7 + 2/7)/2 = 4/7.
	want := 4.0 / 7.0
	if d < want-1e-9 || d > want+1e-9 {
		t.Errorf("TCloseness = %g, want %g", d, want)
	}
	// Identical distribution in one group -> distance 0.
	empty := tbl.Filter(func(int) bool { return false })
	d, err = TCloseness(empty, patientQIs, "Income")
	if err != nil || d != 0 {
		t.Errorf("empty TCloseness = %g, %v", d, err)
	}
	if _, err := TCloseness(tbl, patientQIs, "Nope"); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestReasonStrings(t *testing.T) {
	for r := Satisfied; r <= NotPSensitive; r++ {
		if r.String() == "" {
			t.Errorf("empty string for reason %d", r)
		}
	}
	if Reason(99).String() == "" {
		t.Error("unknown reason string empty")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
