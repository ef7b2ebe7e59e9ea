package core

import (
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/table"
)

// illnessHierarchy groups diseases into categories: the similarity-
// attack scenario.
func illnessHierarchy(t *testing.T) hierarchy.Hierarchy {
	t.Helper()
	h, err := hierarchy.NewTree("Illness", map[string][]string{
		"Colon Cancer":   {"Cancer", "Any"},
		"Lung Cancer":    {"Cancer", "Any"},
		"Stomach Cancer": {"Cancer", "Any"},
		"Flu":            {"Infection", "Any"},
		"HIV":            {"Infection", "Any"},
		"Diabetes":       {"Chronic", "Any"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func similarityTable(t *testing.T, illnesses []string) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Zip", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	rows := make([][]string, len(illnesses))
	for i, ill := range illnesses {
		rows[i] = []string{"41076", ill}
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestSimilarityAttackDetected: three distinct cancers satisfy plain
// 3-sensitivity but fail extended 2-sensitivity at the category level.
func TestSimilarityAttackDetected(t *testing.T) {
	tbl := similarityTable(t, []string{"Colon Cancer", "Lung Cancer", "Stomach Cancer"})
	qis := []string{"Zip"}
	cfg := ExtendedConfig{Hierarchy: illnessHierarchy(t), MaxLevel: 1}

	// Plain p-sensitivity is fooled: 3 distinct ground values.
	plain, err := CheckBasic(tbl, qis, []string{"Illness"}, 3, 3)
	if err != nil || !plain {
		t.Fatalf("plain 3-sensitivity = %v, %v; want true", plain, err)
	}
	// Extended 2-sensitivity catches the all-cancer group.
	ext, err := CheckExtended(tbl, qis, "Illness", 2, 3, cfg)
	if err != nil {
		t.Fatalf("CheckExtended: %v", err)
	}
	if ext {
		t.Error("extended check should fail: every value generalizes to Cancer")
	}
}

// TestExtendedSatisfied: values from different categories pass.
func TestExtendedSatisfied(t *testing.T) {
	tbl := similarityTable(t, []string{"Colon Cancer", "Flu", "Diabetes"})
	qis := []string{"Zip"}
	cfg := ExtendedConfig{Hierarchy: illnessHierarchy(t), MaxLevel: 1}
	ok, err := CheckExtended(tbl, qis, "Illness", 3, 3, cfg)
	if err != nil || !ok {
		t.Errorf("extended 3-sensitivity = %v, %v; want true", ok, err)
	}
}

// TestExtendedRootLevelExempt: at the root everything is one label, so
// including it would make the property unsatisfiable; the default
// MaxLevel (height - 1) must exempt it.
func TestExtendedRootLevelExempt(t *testing.T) {
	tbl := similarityTable(t, []string{"Colon Cancer", "Flu", "Diabetes"})
	cfg := ExtendedConfig{Hierarchy: illnessHierarchy(t), MaxLevel: -1}
	if cfg.maxLevel() != 1 {
		t.Fatalf("default MaxLevel = %d, want 1", cfg.maxLevel())
	}
	ok, err := CheckExtended(tbl, []string{"Zip"}, "Illness", 2, 3, cfg)
	if err != nil || !ok {
		t.Errorf("check with default MaxLevel = %v, %v", ok, err)
	}
	// Forcing the root level makes p=2 impossible.
	cfg.MaxLevel = 2
	ok, err = CheckExtended(tbl, []string{"Zip"}, "Illness", 2, 3, cfg)
	if err != nil || ok {
		t.Errorf("root-level check = %v, %v; want false", ok, err)
	}
}

func TestExtendedKAnonymityGate(t *testing.T) {
	// Two singleton groups: fails k=2 regardless of diversity.
	sch := table.MustSchema(
		table.Field{Name: "Zip", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"41076", "Flu"}, {"43102", "Diabetes"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := CheckExtended(tbl, []string{"Zip"}, "Illness", 1, 2,
		ExtendedConfig{Hierarchy: illnessHierarchy(t), MaxLevel: 0})
	if err != nil || ok {
		t.Errorf("k gate = %v, %v; want false", ok, err)
	}
}

func TestExtendedValidation(t *testing.T) {
	tbl := similarityTable(t, []string{"Flu", "HIV", "Diabetes"})
	h := illnessHierarchy(t)
	if _, err := CheckExtended(tbl, []string{"Zip"}, "Illness", 0, 2, ExtendedConfig{Hierarchy: h}); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := CheckExtended(tbl, []string{"Zip"}, "Illness", 2, 2, ExtendedConfig{}); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if _, err := CheckExtended(tbl, []string{"Zip"}, "Other", 2, 2, ExtendedConfig{Hierarchy: h}); err == nil {
		t.Error("attribute mismatch accepted")
	}
	if _, err := CheckExtended(tbl, []string{"Zip"}, "Illness", 2, 2,
		ExtendedConfig{Hierarchy: h, MaxLevel: 9}); err == nil {
		t.Error("MaxLevel beyond height accepted")
	}
	// Unknown ground value surfaces the hierarchy error (two rows so
	// the k-anonymity gate passes and the hierarchy is consulted).
	bad := similarityTable(t, []string{"Mystery", "Mystery"})
	if _, err := CheckExtended(bad, []string{"Zip"}, "Illness", 1, 2,
		ExtendedConfig{Hierarchy: h, MaxLevel: 1}); err == nil {
		t.Error("unknown ground value accepted")
	}
}

func TestViolationsReporting(t *testing.T) {
	tbl := table3(t)
	// p=2, k=3: group 1 (age 20) has constant Income.
	vs, err := Violations(tbl, patientQIs, patientConf, 2, 3)
	if err != nil {
		t.Fatalf("Violations: %v", err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	v := vs[0]
	if v.TooSmall {
		t.Error("group marked too small; it has 3 members")
	}
	if v.LowDiversity["Income"] != 1 {
		t.Errorf("low diversity = %v", v.LowDiversity)
	}
	if v.Size != 3 {
		t.Errorf("size = %d", v.Size)
	}
	if v.KeyString() == "" {
		t.Error("empty key string")
	}

	// k=4: both groups now violate (sizes 3 and 4; first too small).
	vs, err = Violations(tbl, patientQIs, patientConf, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	tooSmall := 0
	for _, v := range vs {
		if v.TooSmall {
			tooSmall++
		}
	}
	if tooSmall != 1 {
		t.Errorf("tooSmall groups = %d, want 1", tooSmall)
	}

	// A satisfying table yields nil.
	fixed := table3Fixed(t)
	vs, err = Violations(fixed, patientQIs, patientConf, 2, 3)
	if err != nil || len(vs) != 0 {
		t.Errorf("violations on satisfying table = %v, %v", vs, err)
	}

	// Validation.
	if _, err := Violations(tbl, patientQIs, nil, 2, 3); err == nil {
		t.Error("no confidential attributes accepted")
	}
	if _, err := Violations(tbl, patientQIs, patientConf, 0, 3); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestProfile(t *testing.T) {
	tbl := table3(t)
	ps, err := Profile(tbl, patientQIs, patientConf)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if len(ps) != 2 {
		t.Fatalf("profiles = %d, want 2", len(ps))
	}
	if ps[0].Size != 3 || ps[0].Distinct["Illness"] != 2 || ps[0].Distinct["Income"] != 1 {
		t.Errorf("group 1 profile = %+v", ps[0])
	}
	if ps[1].Size != 4 || ps[1].Distinct["Income"] != 2 {
		t.Errorf("group 2 profile = %+v", ps[1])
	}
	// Consistency with Sensitivity and MinGroupSize.
	s, _ := Sensitivity(tbl, patientQIs, patientConf)
	min := ps[0].Distinct["Income"]
	for _, p := range ps {
		for _, d := range p.Distinct {
			if d < min {
				min = d
			}
		}
	}
	if s != min {
		t.Errorf("Sensitivity %d != min profile distinct %d", s, min)
	}
	if _, err := Profile(tbl, []string{"Nope"}, patientConf); err == nil {
		t.Error("unknown QI accepted")
	}
}

func TestCheckPAlpha(t *testing.T) {
	// A 3-anonymous group {Cancer x2, Flu x1}: 2 distinct values, but
	// the dominant value holds 2/3 of the group.
	sch := table.MustSchema(
		table.Field{Name: "Zip", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"41076", "Cancer"}, {"41076", "Cancer"}, {"41076", "Flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	qis := []string{"Zip"}
	conf := []string{"Illness"}

	// alpha = 1 degenerates to plain p-sensitivity.
	ok, err := CheckPAlpha(tbl, qis, conf, 2, 3, 1)
	if err != nil || !ok {
		t.Errorf("alpha=1: %v, %v; want true", ok, err)
	}
	plain, _ := CheckBasic(tbl, qis, conf, 2, 3)
	if ok != plain {
		t.Error("alpha=1 disagrees with CheckBasic")
	}
	// alpha = 0.5 rejects the 2/3-dominant group.
	ok, err = CheckPAlpha(tbl, qis, conf, 2, 3, 0.5)
	if err != nil || ok {
		t.Errorf("alpha=0.5: %v, %v; want false", ok, err)
	}
	// alpha = 0.7 admits it (2/3 <= 0.7).
	ok, err = CheckPAlpha(tbl, qis, conf, 2, 3, 0.7)
	if err != nil || !ok {
		t.Errorf("alpha=0.7: %v, %v; want true", ok, err)
	}
	// p gate still applies.
	ok, _ = CheckPAlpha(tbl, qis, conf, 3, 3, 1)
	if ok {
		t.Error("p=3 with 2 distinct values accepted")
	}
	// k gate.
	ok, _ = CheckPAlpha(tbl.Head(2), qis, conf, 2, 3, 1)
	if ok {
		t.Error("undersized group accepted")
	}
	// Validation.
	if _, err := CheckPAlpha(tbl, qis, conf, 2, 3, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := CheckPAlpha(tbl, qis, conf, 2, 3, 1.5); err == nil {
		t.Error("alpha>1 accepted")
	}
	if _, err := CheckPAlpha(tbl, qis, nil, 2, 3, 1); err == nil {
		t.Error("no confidential attributes accepted")
	}
	if _, err := CheckPAlpha(tbl, qis, []string{"Missing"}, 2, 3, 1); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := CheckPAlpha(tbl, qis, conf, 0, 3, 1); err == nil {
		t.Error("p=0 accepted")
	}
}

// TestExtendedSensitivityBelowPlain: category-level diversity can only
// be lower than value-level diversity. Five distinct illnesses in three
// categories are plainly 5-sensitive, and extended-p-sensitive for p up
// to 3 only.
func TestExtendedSensitivityBelowPlain(t *testing.T) {
	tbl := similarityTable(t, []string{"Colon Cancer", "Lung Cancer", "Flu", "HIV", "Diabetes"})
	qis := []string{"Zip"}
	plain, err := Sensitivity(tbl, qis, []string{"Illness"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExtendedConfig{Hierarchy: illnessHierarchy(t), MaxLevel: 1}
	for p := 1; p <= plain; p++ {
		ok, err := CheckExtended(tbl, qis, "Illness", p, plain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (p <= 3) {
			t.Errorf("extended %d-sensitivity = %v, want %v", p, ok, p <= 3)
		}
	}
	if plain != 5 {
		t.Errorf("plain sensitivity %d, want 5", plain)
	}
}
