package psk

import (
	"strings"
	"testing"
)

// paperHierarchies builds the Figure 2/3 configuration through the
// public API.
func paperHierarchies(t *testing.T) *Hierarchies {
	t.Helper()
	zip, err := NewPrefixStepsHierarchy("ZipCode", 5, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHierarchies(zip, NewFlatHierarchy("Sex", "Person"))
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

func figure3(t *testing.T) *Table {
	t.Helper()
	sch := MustSchema(
		Field{Name: "Sex", Type: String},
		Field{Name: "ZipCode", Type: String},
		Field{Name: "Illness", Type: String},
	)
	tbl, err := FromText(sch, [][]string{
		{"M", "41076", "Flu"}, {"F", "41099", "Cold"}, {"M", "41099", "Asthma"},
		{"M", "41076", "Cold"}, {"F", "43102", "Flu"}, {"M", "43102", "Asthma"},
		{"M", "43102", "Cold"}, {"F", "43103", "Flu"}, {"M", "48202", "Asthma"},
		{"M", "48201", "Flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func baseConfig(t *testing.T) Config {
	return Config{
		QuasiIdentifiers: []string{"Sex", "ZipCode"},
		Confidential:     []string{"Illness"},
		Hierarchies:      paperHierarchies(t),
		K:                3,
		P:                2,
		MaxSuppress:      4,
	}
}

func TestAnonymizeSamarati(t *testing.T) {
	tbl := figure3(t)
	cfg := baseConfig(t)
	res, err := Anonymize(tbl, cfg)
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	if !res.Found {
		t.Fatal("no solution found")
	}
	ok, err := IsPSensitiveKAnonymous(res.Masked, cfg.QuasiIdentifiers, cfg.Confidential, cfg.P, cfg.K)
	if err != nil || !ok {
		t.Errorf("output not 2-sensitive 3-anonymous: %v", err)
	}
	if res.Suppressed > cfg.MaxSuppress {
		t.Errorf("suppressed %d > budget %d", res.Suppressed, cfg.MaxSuppress)
	}
}

func TestAnonymizeAlgorithmsAgreeOnHeight(t *testing.T) {
	tbl := figure3(t)
	cfg := baseConfig(t)
	heights := map[Algorithm]int{}
	for _, alg := range []Algorithm{AlgorithmSamarati, AlgorithmBottomUp, AlgorithmExhaustive} {
		c := cfg
		c.Algorithm = alg
		res, err := Anonymize(tbl, c)
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if !res.Found {
			t.Fatalf("alg %d found nothing", alg)
		}
		heights[alg] = res.Node.Height()
		if alg != AlgorithmSamarati && len(res.AllMinimal) == 0 {
			t.Errorf("alg %d returned no minimal set", alg)
		}
	}
	if heights[AlgorithmSamarati] != heights[AlgorithmBottomUp] {
		t.Errorf("heights differ: %v", heights)
	}
	// Exhaustive returns a p-k-minimal node, which may sit at a greater
	// height than the minimal *height* node (minimality is w.r.t. the
	// partial order, not height), but never below.
	if heights[AlgorithmExhaustive] < heights[AlgorithmSamarati] {
		t.Errorf("exhaustive found lower height than samarati: %v", heights)
	}
}

func TestAnonymizeUnknownAlgorithm(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Algorithm = Algorithm(99)
	if _, err := Anonymize(figure3(t), cfg); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPropertyChecks(t *testing.T) {
	tbl := figure3(t)
	qis := []string{"Sex", "ZipCode"}
	ok, err := IsKAnonymous(tbl, qis, 2)
	if err != nil || ok {
		t.Errorf("raw table should not be 2-anonymous: %v %v", ok, err)
	}
	s, err := Sensitivity(tbl, qis, []string{"Illness"})
	if err != nil || s != 1 {
		t.Errorf("sensitivity = %d, %v", s, err)
	}
	basic, err := CheckBasic(tbl, qis, []string{"Illness"}, 2, 2)
	if err != nil || basic {
		t.Errorf("CheckBasic = %v, %v", basic, err)
	}
	maxP, err := MaxP(tbl, []string{"Illness"})
	if err != nil || maxP != 3 {
		t.Errorf("MaxP = %d, %v", maxP, err)
	}
	mg, err := MaxGroups(tbl, []string{"Illness"}, 2)
	if err != nil || mg != 6 { // n=10, most frequent illness appears 4 times -> 6
		t.Errorf("MaxGroups = %d, %v", mg, err)
	}
	disc, err := AttributeDisclosures(tbl, qis, []string{"Illness"}, 2)
	if err != nil || disc == 0 {
		t.Errorf("AttributeDisclosures = %d, %v (singleton groups must disclose)", disc, err)
	}
}

func TestMondrianFacade(t *testing.T) {
	tbl := figure3(t)
	masked, err := Mondrian(tbl, []string{"Sex", "ZipCode"}, []string{"Illness"}, 3, 2)
	if err != nil {
		t.Fatalf("Mondrian: %v", err)
	}
	ok, err := IsPSensitiveKAnonymous(masked, []string{"Sex", "ZipCode"}, []string{"Illness"}, 2, 3)
	if err != nil || !ok {
		t.Errorf("Mondrian output fails property: %v", err)
	}
	if masked.NumRows() != tbl.NumRows() {
		t.Error("Mondrian dropped rows")
	}
}

func TestQueryFacade(t *testing.T) {
	tbl := figure3(t)
	out, err := Query(map[string]*Table{"T": tbl},
		"SELECT Sex, COUNT(*) AS n FROM T GROUP BY Sex ORDER BY n DESC")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	v, _ := out.Value(0, "Sex")
	if v.Str() != "M" {
		t.Errorf("top sex = %v", v)
	}
	if _, err := Query(nil, "SELECT * FROM Missing"); err == nil {
		t.Error("missing table accepted")
	}
}

func TestCSVRoundTripFacade(t *testing.T) {
	tbl := figure3(t)
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	sch := tbl.Schema()
	back, err := ReadCSV(strings.NewReader(sb.String()), &sch)
	if err != nil || back.NumRows() != tbl.NumRows() {
		t.Errorf("round trip: %v", err)
	}
	inferred, err := ReadCSV(strings.NewReader(sb.String()), nil)
	if err != nil || inferred.NumCols() != 3 {
		t.Errorf("inferred: %v", err)
	}
}

func TestIntruderFacade(t *testing.T) {
	mmSch := MustSchema(
		Field{Name: "Sex", Type: String},
		Field{Name: "Zip", Type: String},
		Field{Name: "Illness", Type: String},
	)
	mm, err := FromText(mmSch, [][]string{
		{"M", "41076", "Flu"}, {"M", "41076", "Flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	extSch := MustSchema(
		Field{Name: "Name", Type: String},
		Field{Name: "Sex", Type: String},
		Field{Name: "Zip", Type: String},
	)
	ext, err := FromText(extSch, [][]string{{"Bob", "M", "41076"}})
	if err != nil {
		t.Fatal(err)
	}
	in := &Intruder{External: ext, IDAttr: "Name", QIs: []string{"Sex", "Zip"}}
	links, err := in.Attack(mm, []string{"Illness"})
	if err != nil {
		t.Fatalf("Attack: %v", err)
	}
	sum := SummarizeAttack(links)
	if sum.AttributeDisclosed != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestMeasureUtilityFacade(t *testing.T) {
	tbl := figure3(t)
	cfg := baseConfig(t)
	res, err := Anonymize(tbl, cfg)
	if err != nil || !res.Found {
		t.Fatalf("Anonymize: %v", err)
	}
	rep, err := MeasureUtility(tbl, res.Masked, cfg, res.Node)
	if err != nil {
		t.Fatalf("MeasureUtility: %v", err)
	}
	if rep.Precision < 0 || rep.Precision > 1 {
		t.Errorf("precision = %g", rep.Precision)
	}
	if rep.Discernibility <= 0 {
		t.Errorf("DM = %d", rep.Discernibility)
	}
	// Invalid config surfaces an error.
	bad := cfg
	bad.QuasiIdentifiers = []string{"Missing"}
	if _, err := MeasureUtility(tbl, res.Masked, bad, res.Node); err == nil {
		t.Error("bad config accepted")
	}
}

func TestHierarchyConstructors(t *testing.T) {
	if _, err := NewPrefixHierarchy("Z", 5, 2); err != nil {
		t.Errorf("NewPrefixHierarchy: %v", err)
	}
	if _, err := NewIntervalHierarchy("Age", []IntervalLevel{DecadeLevel("d", 0, 99, 10)}); err != nil {
		t.Errorf("NewIntervalHierarchy: %v", err)
	}
	tree, err := NewTreeHierarchy("M", map[string][]string{"a": {"x"}, "b": {"x"}})
	if err != nil || tree.Height() != 1 {
		t.Errorf("NewTreeHierarchy: %v", err)
	}
	parsed, err := ParseTreeHierarchy("R", "a;top\nb;top\n")
	if err != nil || parsed.Height() != 1 {
		t.Errorf("ParseTreeHierarchy: %v", err)
	}
	flat := NewFlatHierarchy("S", "")
	got, _ := flat.Generalize("x", 1)
	if got != Suppressed {
		t.Errorf("flat top = %q", got)
	}
}

func TestValuesAndBuilderFacade(t *testing.T) {
	sch := MustSchema(Field{Name: "A", Type: Int}, Field{Name: "B", Type: String})
	b, err := NewBuilder(sch)
	if err != nil {
		t.Fatal(err)
	}
	b.Append(IV(1), SV("x"))
	b.Append(FV(2.0), SV("y"))
	tbl, err := b.Build()
	if err != nil || tbl.NumRows() != 2 {
		t.Fatalf("build: %v", err)
	}
	rows := [][]Value{{IV(3), SV("z")}}
	tbl2, err := FromRows(sch, rows)
	if err != nil || tbl2.NumRows() != 1 {
		t.Fatalf("FromRows: %v", err)
	}
}

func TestGreedyClusterFacade(t *testing.T) {
	tbl := figure3(t)
	masked, err := GreedyCluster(tbl, []string{"Sex", "ZipCode"}, []string{"Illness"}, 3, 2)
	if err != nil {
		t.Fatalf("GreedyCluster: %v", err)
	}
	ok, err := IsPSensitiveKAnonymous(masked, []string{"Sex", "ZipCode"}, []string{"Illness"}, 2, 3)
	if err != nil || !ok {
		t.Errorf("cluster output fails property: %v", err)
	}
	if masked.NumRows() != tbl.NumRows() {
		t.Error("clustering dropped rows")
	}
}

func TestAllMinimalFacade(t *testing.T) {
	tbl := figure3(t)
	cfg := baseConfig(t)
	nodes, err := AllMinimal(tbl, cfg)
	if err != nil {
		t.Fatalf("AllMinimal: %v", err)
	}
	if len(nodes) == 0 {
		t.Fatal("no minimal nodes")
	}
	// Every reported node must actually satisfy the property.
	for _, n := range nodes {
		c := cfg
		c.Algorithm = AlgorithmSamarati
		res, err := Anonymize(tbl, c)
		if err != nil || !res.Found {
			t.Fatalf("anonymize: %v", err)
		}
		if n.Height() < res.Node.Height() {
			t.Errorf("minimal node %v below Samarati height %d", n, res.Node.Height())
		}
	}
}

func TestMeasureRiskFacade(t *testing.T) {
	tbl := figure3(t)
	m, err := MeasureRisk(tbl, []string{"Sex", "ZipCode"})
	if err != nil {
		t.Fatalf("MeasureRisk: %v", err)
	}
	if m.Records != 10 || m.UniqueRecords == 0 {
		t.Errorf("measures = %+v", m)
	}
	if m.SatisfiesThreshold(0.5) {
		t.Error("raw table has singletons; threshold must fail")
	}
}

func TestListViolationsFacade(t *testing.T) {
	tbl := figure3(t)
	vs, err := ListViolations(tbl, []string{"Sex", "ZipCode"}, []string{"Illness"}, 2, 2)
	if err != nil {
		t.Fatalf("ListViolations: %v", err)
	}
	if len(vs) == 0 {
		t.Error("raw table should violate")
	}
	ps, err := ProfileGroups(tbl, []string{"Sex", "ZipCode"}, []string{"Illness"})
	if err != nil || len(ps) == 0 {
		t.Errorf("ProfileGroups: %v", err)
	}
}

func TestExtendedFacade(t *testing.T) {
	sch := MustSchema(
		Field{Name: "Zip", Type: String},
		Field{Name: "Illness", Type: String},
	)
	tbl, err := FromText(sch, [][]string{
		{"41076", "Colon Cancer"}, {"41076", "Lung Cancer"}, {"41076", "Stomach Cancer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewTreeHierarchy("Illness", map[string][]string{
		"Colon Cancer":   {"Cancer"},
		"Lung Cancer":    {"Cancer"},
		"Stomach Cancer": {"Cancer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Plain 3-sensitivity holds; extended 2-sensitivity at the category
	// level must fail (similarity attack).
	plain, err := CheckBasic(tbl, []string{"Zip"}, []string{"Illness"}, 3, 3)
	if err != nil || !plain {
		t.Fatalf("plain = %v, %v", plain, err)
	}
	ext, err := CheckExtendedPSensitivity(tbl, []string{"Zip"}, "Illness", 2, 3,
		ExtendedConfig{Hierarchy: h, MaxLevel: 1})
	if err != nil || ext {
		t.Errorf("extended = %v, %v; want false", ext, err)
	}
}

func TestTableOpsFacade(t *testing.T) {
	tbl := figure3(t)
	dropped, err := tbl.Drop("Illness")
	if err != nil || dropped.NumCols() != 2 {
		t.Errorf("Drop: %v", err)
	}
	renamed, err := tbl.Rename("Illness", "Dx")
	if err != nil || !renamed.Schema().Has("Dx") {
		t.Errorf("Rename: %v", err)
	}
	both, err := tbl.Concat(tbl)
	if err != nil || both.NumRows() != 20 {
		t.Errorf("Concat: %v", err)
	}
}

func TestLocalSuppressFacade(t *testing.T) {
	tbl := figure3(t)
	cfg := baseConfig(t)
	masked, suppressed, err := LocalSuppress(tbl, cfg, Node{1, 1})
	if err != nil {
		t.Fatalf("LocalSuppress: %v", err)
	}
	if masked.NumRows() != tbl.NumRows() {
		t.Error("local suppression must not drop rows")
	}
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (the 482** pair)", suppressed)
	}
	bad := cfg
	bad.QuasiIdentifiers = []string{"Missing"}
	if _, _, err := LocalSuppress(tbl, bad, Node{1, 1}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestIncognitoFacade(t *testing.T) {
	tbl := figure3(t)
	cfg := baseConfig(t)
	cfg.Algorithm = AlgorithmIncognito
	res, err := Anonymize(tbl, cfg)
	if err != nil {
		t.Fatalf("Anonymize(incognito): %v", err)
	}
	if !res.Found || len(res.AllMinimal) == 0 {
		t.Fatal("no minimal nodes")
	}
	ok, err := IsPSensitiveKAnonymous(res.Masked, cfg.QuasiIdentifiers, cfg.Confidential, cfg.P, cfg.K)
	if err != nil || !ok {
		t.Errorf("output fails property: %v", err)
	}
	// Agreement with Samarati on minimal height.
	cfg.Algorithm = AlgorithmSamarati
	sam, err := Anonymize(tbl, cfg)
	if err != nil || !sam.Found {
		t.Fatal(err)
	}
	if res.Node.Height() != sam.Node.Height() {
		t.Errorf("incognito height %d != samarati %d", res.Node.Height(), sam.Node.Height())
	}
}

func TestAnatomizeFacade(t *testing.T) {
	tbl := figure3(t)
	rel, err := Anatomize(tbl, []string{"Sex", "ZipCode"}, "Illness", 2)
	if err != nil {
		t.Fatalf("Anatomize: %v", err)
	}
	if rel.QIT.NumRows() != tbl.NumRows() || rel.Groups == 0 {
		t.Errorf("release = %d rows, %d groups", rel.QIT.NumRows(), rel.Groups)
	}
	// Inspect the sensitive table with SQL: every group has >= 2
	// distinct values.
	out, err := Query(map[string]*Table{"ST": rel.ST},
		"SELECT GroupID, COUNT(DISTINCT Illness) AS d FROM ST GROUP BY GroupID HAVING COUNT(DISTINCT Illness) < 2")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if out.NumRows() != 0 {
		t.Errorf("%d groups below 2 distinct values", out.NumRows())
	}
}

func TestCheckPAlphaFacade(t *testing.T) {
	tbl := figure3(t)
	ok, err := CheckPAlpha(tbl, []string{"Sex"}, []string{"Illness"}, 2, 3, 1)
	if err != nil {
		t.Fatalf("CheckPAlpha: %v", err)
	}
	// Grouped only by Sex: M(7) has 3 illnesses, F(3) has 2 -> plain
	// 2-sensitive 3-anonymity holds at alpha = 1.
	if !ok {
		t.Error("alpha=1 should hold")
	}
	// A tight alpha bites: F group is {Cold, Flu x2} -> 2/3 dominance.
	ok, err = CheckPAlpha(tbl, []string{"Sex"}, []string{"Illness"}, 2, 3, 0.5)
	if err != nil || ok {
		t.Errorf("alpha=0.5 = %v, %v; want false", ok, err)
	}
}

func TestDiversityFacade(t *testing.T) {
	tbl := figure3(t)
	qis := []string{"Sex"}
	ok, err := IsDistinctLDiverse(tbl, qis, "Illness", 2)
	if err != nil || !ok {
		t.Errorf("distinct 2-diverse by Sex = %v, %v", ok, err)
	}
	ok, err = IsDistinctLDiverse(tbl, qis, "Illness", 4)
	if err != nil || ok {
		t.Errorf("distinct 4-diverse = %v, %v; want false", ok, err)
	}
	ok, err = IsEntropyLDiverse(tbl, qis, "Illness", 1)
	if err != nil || !ok {
		t.Errorf("entropy 1-diverse = %v, %v", ok, err)
	}
	d, err := TCloseness(tbl, qis, "Illness")
	if err != nil || d < 0 || d > 1 {
		t.Errorf("t-closeness = %g, %v", d, err)
	}
}
