package risk

import (
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/table"
)

// The paper's Section 2 example: Table 1 (masked patients) attacked
// with Table 2 (external identified list). Age was generalized to
// multiples of 10 (floor to decade start), ZipCode and Sex released at
// ground level.

func maskedPatients(t *testing.T) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.String},
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

func externalTable(t *testing.T) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Name", Type: table.String},
		table.Field{Name: "Age", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"Sam", "29", "M", "43102"},
		{"Gloria", "38", "F", "43102"},
		{"Adam", "51", "M", "43102"},
		{"Eric", "29", "M", "43102"},
		{"Tanisha", "34", "F", "43102"},
		{"Don", "51", "M", "43102"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// decadeHierarchy generalizes an age to the start of its decade, which
// is exactly how Table 1's ages were masked (29 -> 20, 51 -> 50).
func decadeHierarchy(t *testing.T) *hierarchy.Set {
	t.Helper()
	var levels []hierarchy.IntervalLevel
	lvl := hierarchy.IntervalLevel{Name: "decade"}
	for c := int64(10); c <= 90; c += 10 {
		lvl.Cuts = append(lvl.Cuts, c)
	}
	for c := int64(0); c <= 90; c += 10 {
		lvl.Labels = append(lvl.Labels, table.IV(c).Str())
	}
	levels = append(levels, lvl)
	age, err := hierarchy.NewInterval("Age", levels)
	if err != nil {
		t.Fatal(err)
	}
	zip, err := hierarchy.NewPrefix("ZipCode", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return hierarchy.MustSet(age, zip, hierarchy.NewFlat("Sex"))
}

func paperIntruder(t *testing.T) *Intruder {
	return &Intruder{
		External:    externalTable(t),
		IDAttr:      "Name",
		QIs:         []string{"Age", "ZipCode", "Sex"},
		Hierarchies: decadeHierarchy(t),
		Node:        lattice.Node{1, 0, 0}, // only Age generalized
	}
}

// TestPaperAttack reproduces the Sam/Eric example: both link to the two
// Diabetes tuples, so neither is identified but both suffer attribute
// disclosure.
func TestPaperAttack(t *testing.T) {
	in := paperIntruder(t)
	links, err := in.Attack(maskedPatients(t), []string{"Illness"})
	if err != nil {
		t.Fatalf("Attack: %v", err)
	}
	if len(links) != 6 {
		t.Fatalf("links = %d", len(links))
	}
	byID := make(map[string]Linkage)
	for _, l := range links {
		byID[l.ID] = l
	}

	for _, name := range []string{"Sam", "Eric"} {
		l := byID[name]
		if len(l.Candidates) != 2 {
			t.Errorf("%s candidates = %d, want 2", name, len(l.Candidates))
		}
		if l.IdentityRisk != 0.5 {
			t.Errorf("%s identity risk = %g, want 0.5", name, l.IdentityRisk)
		}
		if got := l.Learned["Illness"]; got != "Diabetes" {
			t.Errorf("%s learned %q, want Diabetes", name, got)
		}
	}

	// Adam and Don link to the two 50s males with different illnesses:
	// no attribute disclosure.
	for _, name := range []string{"Adam", "Don"} {
		l := byID[name]
		if len(l.Candidates) != 2 {
			t.Errorf("%s candidates = %d, want 2", name, len(l.Candidates))
		}
		if len(l.Learned) != 0 {
			t.Errorf("%s should learn nothing, got %v", name, l.Learned)
		}
	}

	// Gloria and Tanisha link to the two 30s females (Breast Cancer,
	// HIV): ambiguous, nothing learned.
	for _, name := range []string{"Gloria", "Tanisha"} {
		l := byID[name]
		if len(l.Candidates) != 2 || len(l.Learned) != 0 {
			t.Errorf("%s = %+v", name, l)
		}
	}
}

func TestSummarize(t *testing.T) {
	in := paperIntruder(t)
	links, err := in.Attack(maskedPatients(t), []string{"Illness"})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(links)
	if s.Individuals != 6 || s.Linked != 6 {
		t.Errorf("summary = %+v", s)
	}
	if s.UniquelyIdentified != 0 {
		t.Errorf("UniquelyIdentified = %d, want 0 (2-anonymous)", s.UniquelyIdentified)
	}
	if s.AttributeDisclosed != 2 {
		t.Errorf("AttributeDisclosed = %d, want 2 (Sam and Eric)", s.AttributeDisclosed)
	}
	if s.MaxIdentityRisk != 0.5 {
		t.Errorf("MaxIdentityRisk = %g, want 0.5", s.MaxIdentityRisk)
	}
	if s.ExpectedReidentifications != 3 {
		t.Errorf("ExpectedReidentifications = %g, want 3 (6 x 1/2)", s.ExpectedReidentifications)
	}
}

func TestAttackNoMatch(t *testing.T) {
	in := paperIntruder(t)
	// External individual outside every masked group.
	sch := table.MustSchema(
		table.Field{Name: "Name", Type: table.String},
		table.Field{Name: "Age", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	ext, err := table.FromText(sch, [][]string{{"Zoe", "75", "F", "43102"}})
	if err != nil {
		t.Fatal(err)
	}
	in.External = ext
	links, err := in.Attack(maskedPatients(t), []string{"Illness"})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 || len(links[0].Candidates) != 0 || links[0].IdentityRisk != 0 {
		t.Errorf("links = %+v", links)
	}
	s := Summarize(links)
	if s.Linked != 0 || s.ExpectedReidentifications != 0 {
		t.Errorf("summary = %+v", s)
	}
}

func TestAttackUniqueIdentification(t *testing.T) {
	// Masked data with a singleton group: identity disclosure.
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	mm, err := table.FromText(sch, [][]string{
		{"70", "43102", "F", "Anemia"},
	})
	if err != nil {
		t.Fatal(err)
	}
	extSch := table.MustSchema(
		table.Field{Name: "Name", Type: table.String},
		table.Field{Name: "Age", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	ext, err := table.FromText(extSch, [][]string{{"Rita", "74", "F", "43102"}})
	if err != nil {
		t.Fatal(err)
	}
	in := paperIntruder(t)
	in.External = ext
	links, err := in.Attack(mm, []string{"Illness"})
	if err != nil {
		t.Fatal(err)
	}
	l := links[0]
	if len(l.Candidates) != 1 || l.IdentityRisk != 1 {
		t.Fatalf("linkage = %+v", l)
	}
	if l.Learned["Illness"] != "Anemia" {
		t.Errorf("learned = %v", l.Learned)
	}
	s := Summarize(links)
	if s.UniquelyIdentified != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestAttackValidation(t *testing.T) {
	in := paperIntruder(t)
	mm := maskedPatients(t)

	bad := *in
	bad.External = nil
	if _, err := bad.Attack(mm, nil); err == nil {
		t.Error("nil external accepted")
	}
	bad = *in
	bad.QIs = nil
	if _, err := bad.Attack(mm, nil); err == nil {
		t.Error("no QIs accepted")
	}
	bad = *in
	bad.IDAttr = "Missing"
	if _, err := bad.Attack(mm, nil); err == nil {
		t.Error("missing ID column accepted")
	}
	bad = *in
	bad.QIs = []string{"Age", "Missing", "Sex"}
	if _, err := bad.Attack(mm, nil); err == nil {
		t.Error("missing QI accepted")
	}
	if _, err := in.Attack(mm, []string{"Missing"}); err == nil {
		t.Error("missing confidential attribute accepted")
	}
	if _, err := in.Attack(nil, nil); err == nil {
		t.Error("nil masked accepted")
	}
}

// TestAttackWithoutGeneralization: a nil hierarchy set means the
// intruder matches raw values.
func TestAttackWithoutGeneralization(t *testing.T) {
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	mm, err := table.FromText(sch, [][]string{
		{"29", "43102", "M", "Flu"},
		{"29", "43102", "M", "Flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	extSch := table.MustSchema(
		table.Field{Name: "Name", Type: table.String},
		table.Field{Name: "Age", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	ext, err := table.FromText(extSch, [][]string{{"Sam", "29", "M", "43102"}})
	if err != nil {
		t.Fatal(err)
	}
	in := &Intruder{External: ext, IDAttr: "Name", QIs: []string{"Age", "ZipCode", "Sex"}}
	links, err := in.Attack(mm, []string{"Illness"})
	if err != nil {
		t.Fatal(err)
	}
	if len(links[0].Candidates) != 2 || links[0].Learned["Illness"] != "Flu" {
		t.Errorf("linkage = %+v", links[0])
	}
}

func TestMeasures(t *testing.T) {
	mm := maskedPatients(t)
	m, err := Measure(mm, []string{"Age", "ZipCode", "Sex"})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if m.Records != 6 || m.Groups != 3 {
		t.Errorf("records/groups = %d/%d", m.Records, m.Groups)
	}
	if m.MinGroup != 2 || m.MaxGroup != 2 {
		t.Errorf("group sizes = %d/%d", m.MinGroup, m.MaxGroup)
	}
	if m.ProsecutorMax != 0.5 || m.JournalistRisk != 0.5 {
		t.Errorf("prosecutor/journalist = %g/%g", m.ProsecutorMax, m.JournalistRisk)
	}
	if m.MarketerRisk != 0.5 || m.ProsecutorAvg != 0.5 {
		t.Errorf("marketer/avg = %g/%g", m.MarketerRisk, m.ProsecutorAvg)
	}
	if m.UniqueRecords != 0 {
		t.Errorf("uniques = %d", m.UniqueRecords)
	}
	if m.AtRisk != 6 {
		t.Errorf("at risk = %d (all groups < 5)", m.AtRisk)
	}
}

func TestMeasuresSingletons(t *testing.T) {
	sch := table.MustSchema(
		table.Field{Name: "Q", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{{"a"}, {"b"}, {"b"}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(tbl, []string{"Q"})
	if err != nil {
		t.Fatal(err)
	}
	if m.UniqueRecords != 1 || m.MinGroup != 1 || m.ProsecutorMax != 1 {
		t.Errorf("measures = %+v", m)
	}
}

func TestMeasuresEmptyAndErrors(t *testing.T) {
	sch := table.MustSchema(table.Field{Name: "Q", Type: table.String})
	empty, err := table.FromText(sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(empty, []string{"Q"})
	if err != nil || m.Groups != 0 {
		t.Errorf("empty measures = %+v, %v", m, err)
	}
	if _, err := Measure(empty, nil); err == nil {
		t.Error("no QIs accepted")
	}
	if _, err := Measure(empty, []string{"Nope"}); err == nil {
		t.Error("unknown QI accepted")
	}
}
