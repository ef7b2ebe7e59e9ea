package table

import (
	"errors"
	"strings"
	"testing"
)

func patientSchema() Schema {
	return MustSchema(
		Field{Name: "Age", Type: Int},
		Field{Name: "ZipCode", Type: String},
		Field{Name: "Sex", Type: String},
		Field{Name: "Illness", Type: String},
	)
}

// patientTable reproduces Table 1 of the paper.
func patientTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := FromText(patientSchema(), [][]string{
		{"50", "43102", "M", "Colon Cancer"},
		{"30", "43102", "F", "Breast Cancer"},
		{"30", "43102", "F", "HIV"},
		{"20", "43102", "M", "Diabetes"},
		{"20", "43102", "M", "Diabetes"},
		{"50", "43102", "M", "Heart Disease"},
	})
	if err != nil {
		t.Fatalf("FromText: %v", err)
	}
	return tbl
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Field{Name: "a"}, Field{Name: "a"}); err == nil {
		t.Fatal("duplicate field names not rejected")
	}
	if _, err := NewSchema(Field{Name: ""}); err == nil {
		t.Fatal("empty field name not rejected")
	}
	s := MustSchema(Field{Name: "x", Type: Int}, Field{Name: "y", Type: String})
	if got := s.Index("y"); got != 1 {
		t.Errorf("Index(y) = %d, want 1", got)
	}
	if got := s.Index("z"); got != -1 {
		t.Errorf("Index(z) = %d, want -1", got)
	}
	if !s.Has("x") || s.Has("z") {
		t.Error("Has misreports membership")
	}
	if got := s.String(); got != "x:int, y:string" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaProject(t *testing.T) {
	s := patientSchema()
	p, err := s.Project([]string{"Sex", "Age"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Len() != 2 || p.Fields[0].Name != "Sex" || p.Fields[1].Name != "Age" {
		t.Errorf("Project produced %v", p)
	}
	if _, err := s.Project([]string{"Nope"}); !errors.Is(err, ErrNoColumn) {
		t.Errorf("Project missing column err = %v, want ErrNoColumn", err)
	}
}

func TestBuilderArityError(t *testing.T) {
	b, err := NewBuilder(patientSchema())
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	b.AppendText("50", "43102", "M") // one cell short
	if _, err := b.Build(); !errors.Is(err, ErrArity) {
		t.Errorf("Build err = %v, want ErrArity", err)
	}
}

func TestBuilderTypeError(t *testing.T) {
	b, _ := NewBuilder(patientSchema())
	b.AppendText("not-a-number", "43102", "M", "Flu")
	if _, err := b.Build(); err == nil {
		t.Error("expected parse error for non-integer Age")
	}
}

func TestBuilderEmptySchema(t *testing.T) {
	if _, err := NewBuilder(Schema{}); !errors.Is(err, ErrEmptySchema) {
		t.Errorf("err = %v, want ErrEmptySchema", err)
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := patientTable(t)
	if tbl.NumRows() != 6 || tbl.NumCols() != 4 {
		t.Fatalf("dims = %dx%d, want 6x4", tbl.NumRows(), tbl.NumCols())
	}
	v, err := tbl.Value(3, "Illness")
	if err != nil || v.Str() != "Diabetes" {
		t.Errorf("Value(3, Illness) = %v, %v", v, err)
	}
	if _, err := tbl.Value(99, "Illness"); !errors.Is(err, ErrRowRange) {
		t.Errorf("out-of-range err = %v", err)
	}
	if _, err := tbl.Value(0, "Nope"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing column err = %v", err)
	}
	row, err := tbl.Row(0)
	if err != nil {
		t.Fatalf("Row: %v", err)
	}
	if row[0].Int() != 50 || row[3].Str() != "Colon Cancer" {
		t.Errorf("Row(0) = %v", row)
	}
}

func TestSelectSharesData(t *testing.T) {
	tbl := patientTable(t)
	sel, err := tbl.Select("Sex", "Illness")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sel.NumCols() != 2 || sel.NumRows() != 6 {
		t.Fatalf("Select dims wrong: %dx%d", sel.NumRows(), sel.NumCols())
	}
	v, _ := sel.Value(2, "Illness")
	if v.Str() != "HIV" {
		t.Errorf("selected value = %q", v.Str())
	}
	if _, err := tbl.Select("Missing"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("Select missing err = %v", err)
	}
}

func TestGatherAndFilter(t *testing.T) {
	tbl := patientTable(t)
	g, err := tbl.Gather([]int{5, 0})
	if err != nil {
		t.Fatalf("Gather: %v", err)
	}
	v, _ := g.Value(0, "Illness")
	if v.Str() != "Heart Disease" {
		t.Errorf("gathered row 0 = %q", v.Str())
	}
	if _, err := tbl.Gather([]int{6}); !errors.Is(err, ErrRowRange) {
		t.Errorf("Gather out-of-range err = %v", err)
	}
	males := tbl.Filter(func(r int) bool {
		v, _ := tbl.Value(r, "Sex")
		return v.Str() == "M"
	})
	if males.NumRows() != 4 {
		t.Errorf("male rows = %d, want 4", males.NumRows())
	}
}

func TestFilterEmptyResult(t *testing.T) {
	tbl := patientTable(t)
	none := tbl.Filter(func(int) bool { return false })
	if none.NumRows() != 0 {
		t.Errorf("empty filter rows = %d", none.NumRows())
	}
	if none.NumCols() != 4 {
		t.Errorf("empty filter cols = %d", none.NumCols())
	}
}

func TestMapColumn(t *testing.T) {
	tbl := patientTable(t)
	dec, err := tbl.MapColumn("Age", func(v Value) (string, error) {
		d := v.Int() / 10 * 10
		return IV(d).Str() + "s", nil
	})
	if err != nil {
		t.Fatalf("MapColumn: %v", err)
	}
	v, _ := dec.Value(0, "Age")
	if v.Str() != "50s" {
		t.Errorf("mapped = %q", v.Str())
	}
	// Original untouched.
	orig, _ := tbl.Value(0, "Age")
	if orig.Int() != 50 {
		t.Errorf("original mutated: %v", orig)
	}
	// Schema type updated.
	if dec.Schema().Fields[0].Type != String {
		t.Errorf("mapped column type = %v, want String", dec.Schema().Fields[0].Type)
	}
}

func TestGroupBy(t *testing.T) {
	tbl := patientTable(t)
	groups, err := tbl.GroupBy("Age", "ZipCode", "Sex")
	if err != nil {
		t.Fatalf("GroupBy: %v", err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	// Every group in Table 1 has exactly 2 members (2-anonymity).
	for _, g := range groups {
		if g.Size() != 2 {
			t.Errorf("group %s size = %d, want 2", g.KeyString(), g.Size())
		}
	}
	n, err := tbl.NumGroups("Age", "ZipCode", "Sex")
	if err != nil || n != 3 {
		t.Errorf("NumGroups = %d, %v; want 3", n, err)
	}
}

func TestGroupByNoColumns(t *testing.T) {
	tbl := patientTable(t)
	if _, err := tbl.GroupBy(); err == nil {
		t.Error("GroupBy() with no columns should fail")
	}
	if _, err := tbl.NumGroups(); err == nil {
		t.Error("NumGroups() with no columns should fail")
	}
}

func TestDistinctCount(t *testing.T) {
	tbl := patientTable(t)
	n, err := tbl.DistinctCount("Illness")
	if err != nil || n != 5 {
		t.Errorf("DistinctCount(Illness) = %d, %v; want 5", n, err)
	}
	n, err = tbl.DistinctCount("ZipCode")
	if err != nil || n != 1 {
		t.Errorf("DistinctCount(ZipCode) = %d, %v; want 1", n, err)
	}
	if _, err := tbl.DistinctCount("Nope"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing column err = %v", err)
	}
}

func TestValueCounts(t *testing.T) {
	tbl := patientTable(t)
	vc, err := tbl.ValueCounts("Illness")
	if err != nil {
		t.Fatalf("ValueCounts: %v", err)
	}
	if len(vc) != 5 {
		t.Fatalf("distinct illnesses = %d, want 5", len(vc))
	}
	if vc[0].Value.Str() != "Diabetes" || vc[0].Count != 2 {
		t.Errorf("top count = %v/%d, want Diabetes/2", vc[0].Value, vc[0].Count)
	}
	// Descending order invariant.
	for i := 1; i < len(vc); i++ {
		if vc[i].Count > vc[i-1].Count {
			t.Errorf("counts not descending at %d", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := patientTable(t)
	var buf strings.Builder
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	sch := patientSchema()
	back, err := ReadCSV(strings.NewReader(buf.String()), &sch)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.NumRows() != tbl.NumRows() {
		t.Fatalf("round trip rows = %d, want %d", back.NumRows(), tbl.NumRows())
	}
	for r := 0; r < tbl.NumRows(); r++ {
		want, _ := tbl.Row(r)
		got, _ := back.Row(r)
		for c := range want {
			if !want[c].Equal(got[c]) {
				t.Errorf("row %d col %d: got %v want %v", r, c, got[c], want[c])
			}
		}
	}
}

func TestReadCSVInferredSchema(t *testing.T) {
	in := "A,B\nx,1\ny,2\n"
	tbl, err := ReadCSV(strings.NewReader(in), nil)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	// Inferred columns are all strings.
	if tbl.Schema().Fields[1].Type != String {
		t.Errorf("inferred type = %v", tbl.Schema().Fields[1].Type)
	}
}

func TestReadCSVColumnReorder(t *testing.T) {
	// CSV column order differs from schema order; match by name.
	in := "Sex,Age,Illness,ZipCode\nM,50,Flu,43102\n"
	sch := patientSchema()
	tbl, err := ReadCSV(strings.NewReader(in), &sch)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	v, _ := tbl.Value(0, "Age")
	if v.Int() != 50 {
		t.Errorf("Age = %v", v)
	}
	v, _ = tbl.Value(0, "ZipCode")
	if v.Str() != "43102" {
		t.Errorf("ZipCode = %v", v)
	}
}

func TestReadCSVErrors(t *testing.T) {
	sch := patientSchema()
	if _, err := ReadCSV(strings.NewReader("A,B\n1,2\n"), &sch); err == nil {
		t.Error("mismatched column count not rejected")
	}
	if _, err := ReadCSV(strings.NewReader("Age,ZipCode,Sex,Wrong\n"), &sch); err == nil {
		t.Error("unknown header not rejected")
	}
	if _, err := ReadCSV(strings.NewReader(""), &sch); err == nil {
		t.Error("empty stream not rejected")
	}
}

func TestSampleDeterministic(t *testing.T) {
	tbl := patientTable(t)
	a, err := tbl.Sample(3, 42)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	b, _ := tbl.Sample(3, 42)
	if a.NumRows() != 3 || b.NumRows() != 3 {
		t.Fatalf("sample sizes %d, %d", a.NumRows(), b.NumRows())
	}
	for r := 0; r < 3; r++ {
		x, _ := a.Row(r)
		y, _ := b.Row(r)
		for c := range x {
			if !x[c].Equal(y[c]) {
				t.Errorf("same-seed samples differ at row %d", r)
			}
		}
	}
	c, _ := tbl.Sample(3, 43)
	_ = c // different seed may differ; just must not error
	if _, err := tbl.Sample(-1, 1); err == nil {
		t.Error("negative sample size not rejected")
	}
	full, _ := tbl.Sample(100, 1)
	if full.NumRows() != 6 {
		t.Errorf("oversized sample rows = %d, want all 6", full.NumRows())
	}
}

func TestSortBy(t *testing.T) {
	tbl := patientTable(t)
	sorted, err := tbl.SortBy("Age", "Illness")
	if err != nil {
		t.Fatalf("SortBy: %v", err)
	}
	prev := int64(-1)
	for r := 0; r < sorted.NumRows(); r++ {
		v, _ := sorted.Value(r, "Age")
		if v.Int() < prev {
			t.Errorf("not sorted at row %d", r)
		}
		prev = v.Int()
	}
}

func TestHeadAndClone(t *testing.T) {
	tbl := patientTable(t)
	h := tbl.Head(2)
	if h.NumRows() != 2 {
		t.Errorf("Head rows = %d", h.NumRows())
	}
	h10 := tbl.Head(10)
	if h10.NumRows() != 6 {
		t.Errorf("Head(10) rows = %d", h10.NumRows())
	}
	cl := tbl.Clone()
	if cl.NumRows() != 6 || !cl.Schema().Equal(tbl.Schema()) {
		t.Error("Clone mismatch")
	}
}

func TestFormat(t *testing.T) {
	tbl := patientTable(t)
	s := tbl.Format(2)
	if !strings.Contains(s, "Age") || !strings.Contains(s, "(6 rows total)") {
		t.Errorf("Format output unexpected:\n%s", s)
	}
	full := tbl.String()
	if strings.Contains(full, "rows total") {
		t.Errorf("String() should show all 6 rows:\n%s", full)
	}
}

func TestValueConversions(t *testing.T) {
	cases := []struct {
		v    Value
		str  string
		i    int64
		f    float64
		kind Type
	}{
		{SV("abc"), "abc", 0, 0, String},
		{SV("42"), "42", 42, 42, String},
		{IV(-7), "-7", -7, -7, Int},
		{FV(2.5), "2.5", 2, 2.5, Float},
	}
	for _, c := range cases {
		if c.v.Str() != c.str || c.v.Int() != c.i || c.v.Float() != c.f || c.v.Kind() != c.kind {
			t.Errorf("conversions for %v: %q %d %g %v", c.v, c.v.Str(), c.v.Int(), c.v.Float(), c.v.Kind())
		}
	}
}

func TestValueCompare(t *testing.T) {
	if IV(1).Compare(IV(2)) != -1 || IV(2).Compare(IV(1)) != 1 || IV(3).Compare(IV(3)) != 0 {
		t.Error("int compare broken")
	}
	if IV(1).Compare(FV(1.5)) != -1 {
		t.Error("mixed numeric compare broken")
	}
	if SV("a").Compare(SV("b")) != -1 || SV("b").Compare(SV("a")) != 1 {
		t.Error("string compare broken")
	}
	if !SV("x").Equal(SV("x")) || SV("x").Equal(SV("y")) {
		t.Error("Equal broken")
	}
}

func TestParseType(t *testing.T) {
	for _, s := range []string{"string", "int", "float"} {
		if _, err := ParseType(s); err != nil {
			t.Errorf("ParseType(%q): %v", s, err)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
	if Int.String() != "int" || String.String() != "string" || Float.String() != "float" {
		t.Error("Type.String broken")
	}
	if Type(9).String() == "" {
		t.Error("unknown type string empty")
	}
}

func TestDrop(t *testing.T) {
	tbl := patientTable(t)
	out, err := tbl.Drop("Age", "Sex")
	if err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if out.NumCols() != 2 || out.Schema().Has("Age") || !out.Schema().Has("Illness") {
		t.Errorf("dropped schema = %v", out.Schema())
	}
	if out.NumRows() != 6 {
		t.Errorf("rows = %d", out.NumRows())
	}
	if _, err := tbl.Drop("Missing"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("unknown column err = %v", err)
	}
	if _, err := tbl.Drop("Age", "ZipCode", "Sex", "Illness"); !errors.Is(err, ErrEmptySchema) {
		t.Errorf("drop-all err = %v", err)
	}
}

func TestRename(t *testing.T) {
	tbl := patientTable(t)
	out, err := tbl.Rename("Illness", "Diagnosis")
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	v, err := out.Value(0, "Diagnosis")
	if err != nil || v.Str() != "Colon Cancer" {
		t.Errorf("renamed value = %v, %v", v, err)
	}
	// Original table untouched.
	if !tbl.Schema().Has("Illness") {
		t.Error("Rename mutated the source schema")
	}
	if _, err := tbl.Rename("Missing", "X"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("unknown column err = %v", err)
	}
	// Renaming onto an existing name is a schema violation.
	if _, err := tbl.Rename("Illness", "Age"); err == nil {
		t.Error("duplicate rename accepted")
	}
}

func TestConcat(t *testing.T) {
	tbl := patientTable(t)
	both, err := tbl.Concat(tbl)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if both.NumRows() != 12 {
		t.Errorf("rows = %d", both.NumRows())
	}
	a, _ := both.Value(0, "Illness")
	b, _ := both.Value(6, "Illness")
	if !a.Equal(b) {
		t.Error("second copy mismatched")
	}
	other, _ := tbl.Select("Age", "Sex")
	if _, err := tbl.Concat(other); err == nil {
		t.Error("schema mismatch accepted")
	}
}
