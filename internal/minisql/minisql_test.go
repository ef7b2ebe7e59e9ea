package minisql

import (
	"strings"
	"testing"

	"psk/internal/table"
)

func patientCatalog(t *testing.T) Catalog {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
		table.Field{Name: "Income", Type: table.Int},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"50", "43102", "M", "Colon Cancer", "20000"},
		{"30", "43102", "F", "Breast Cancer", "25000"},
		{"30", "43102", "F", "HIV", "30000"},
		{"20", "43102", "M", "Diabetes", "15000"},
		{"20", "43102", "M", "Diabetes", "18000"},
		{"50", "43102", "M", "Heart Disease", "40000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Catalog{"Patient": tbl, "IM": tbl}
}

func mustRun(t *testing.T, cat Catalog, q string) *table.Table {
	t.Helper()
	out, err := Run(cat, q)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	return out
}

// TestPaperKAnonymityQuery runs the paper's Section 2 check verbatim:
// SELECT COUNT(*) FROM Patient GROUP BY Sex, ZipCode, Age.
func TestPaperKAnonymityQuery(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat, "SELECT COUNT(*) FROM Patient GROUP BY Sex, ZipCode, Age")
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
	for r := 0; r < out.NumRows(); r++ {
		v, _ := out.Value(r, "COUNT(*)")
		if v.Int() != 2 {
			t.Errorf("group %d count = %d, want 2 (Table 1 is 2-anonymous)", r, v.Int())
		}
	}
}

// TestPaperViolationQuery: groups with count below k identify
// k-anonymity violations, exactly as the paper describes.
func TestPaperViolationQuery(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat,
		"SELECT Sex, ZipCode, Age, COUNT(*) FROM Patient GROUP BY Sex, ZipCode, Age HAVING COUNT(*) < 3")
	if out.NumRows() != 3 {
		t.Errorf("violating groups for k=3: %d, want 3 (all pairs)", out.NumRows())
	}
	out = mustRun(t, cat,
		"SELECT Sex FROM Patient GROUP BY Sex, ZipCode, Age HAVING COUNT(*) < 2")
	if out.NumRows() != 0 {
		t.Errorf("violating groups for k=2: %d, want 0", out.NumRows())
	}
}

// TestPaperCondition1Query runs the paper's Condition 1 check:
// SELECT COUNT(DISTINCT S) FROM IM.
func TestPaperCondition1Query(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat, "SELECT COUNT(DISTINCT Illness) FROM IM")
	v, _ := out.Value(0, "COUNT(DISTINCT Illness)")
	if v.Int() != 5 {
		t.Errorf("distinct illnesses = %d, want 5", v.Int())
	}
	out = mustRun(t, cat, "SELECT COUNT(DISTINCT ZipCode) AS zips FROM IM")
	v, _ = out.Value(0, "zips")
	if v.Int() != 1 {
		t.Errorf("distinct zips = %d, want 1", v.Int())
	}
}

func TestSelectStar(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat, "SELECT * FROM Patient WHERE Sex = 'M'")
	if out.NumRows() != 4 || out.Schema().Len() != 5 {
		t.Errorf("dims = %dx%d", out.NumRows(), out.Schema().Len())
	}
	out = mustRun(t, cat, "SELECT * FROM Patient WHERE Age >= 30 AND Sex = 'F'")
	if out.NumRows() != 2 {
		t.Errorf("rows = %d", out.NumRows())
	}
	out = mustRun(t, cat, "SELECT * FROM Patient WHERE Age > 20 OR Illness = 'Diabetes'")
	if out.NumRows() != 6 {
		t.Errorf("rows = %d", out.NumRows())
	}
	out = mustRun(t, cat, "SELECT * FROM Patient WHERE NOT Sex = 'M'")
	if out.NumRows() != 2 {
		t.Errorf("rows = %d", out.NumRows())
	}
	out = mustRun(t, cat, "SELECT * FROM Patient WHERE (Age = 20 OR Age = 30) AND Sex = 'M'")
	if out.NumRows() != 2 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestProjection(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat, "SELECT Illness, Age FROM Patient WHERE Income > 25000")
	if out.NumRows() != 2 || out.Schema().Len() != 2 {
		t.Fatalf("dims = %dx%d", out.NumRows(), out.Schema().Len())
	}
	v, _ := out.Value(0, "Illness")
	if v.Str() != "HIV" {
		t.Errorf("row 0 = %v", v)
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat,
		"SELECT COUNT(*) AS n, MIN(Income) AS lo, MAX(Income) AS hi, SUM(Income) AS total, AVG(Age) AS avgage FROM Patient")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	get := func(col string) table.Value {
		v, err := out.Value(0, col)
		if err != nil {
			t.Fatalf("col %s: %v", col, err)
		}
		return v
	}
	if get("n").Int() != 6 || get("lo").Int() != 15000 || get("hi").Int() != 40000 {
		t.Errorf("aggregates = %v %v %v", get("n"), get("lo"), get("hi"))
	}
	if get("total").Int() != 148000 {
		t.Errorf("sum = %v", get("total"))
	}
	if got := get("avgage").Float(); got < 33.3 || got > 33.4 {
		t.Errorf("avg = %v", got)
	}
}

func TestGroupByWithKeysInOutput(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat,
		"SELECT Sex, COUNT(*) AS n, COUNT(DISTINCT Illness) AS ills FROM Patient GROUP BY Sex ORDER BY Sex")
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	sex0, _ := out.Value(0, "Sex")
	n0, _ := out.Value(0, "n")
	i0, _ := out.Value(0, "ills")
	if sex0.Str() != "F" || n0.Int() != 2 || i0.Int() != 2 {
		t.Errorf("F row = %v/%v/%v", sex0, n0, i0)
	}
	sex1, _ := out.Value(1, "Sex")
	n1, _ := out.Value(1, "n")
	i1, _ := out.Value(1, "ills")
	if sex1.Str() != "M" || n1.Int() != 4 || i1.Int() != 3 {
		t.Errorf("M row = %v/%v/%v", sex1, n1, i1)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat, "SELECT Illness, Income FROM Patient ORDER BY Income DESC LIMIT 2")
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	v, _ := out.Value(0, "Income")
	if v.Str() != "40000" {
		t.Errorf("top income = %v", v)
	}
	out = mustRun(t, cat, "SELECT Age, COUNT(*) FROM Patient GROUP BY Age ORDER BY COUNT(*) DESC, Age ASC")
	a0, _ := out.Value(0, "Age")
	if a0.Str() != "20" && a0.Str() != "30" && a0.Str() != "50" {
		t.Errorf("first age = %v", a0)
	}
	if out.NumRows() != 3 {
		t.Errorf("rows = %d", out.NumRows())
	}
	out = mustRun(t, cat, "SELECT * FROM Patient LIMIT 0")
	if out.NumRows() != 0 {
		t.Errorf("LIMIT 0 rows = %d", out.NumRows())
	}
}

func TestStringEscapes(t *testing.T) {
	sch := table.MustSchema(table.Field{Name: "S", Type: table.String})
	tbl, err := table.FromText(sch, [][]string{{"it's"}, {"plain"}})
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, Catalog{"T": tbl}, "SELECT * FROM T WHERE S = 'it''s'")
	if out.NumRows() != 1 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestNumericComparisonOnIntColumn(t *testing.T) {
	cat := patientCatalog(t)
	// Int column compared with numeric literal: numeric semantics (9 < 30).
	out := mustRun(t, cat, "SELECT * FROM Patient WHERE Age <> 30 AND Age <= 20")
	if out.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", out.NumRows())
	}
	out = mustRun(t, cat, "SELECT * FROM Patient WHERE Income >= 30000")
	if out.NumRows() != 2 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT * FROM",
		"SELECT * T",
		"INSERT INTO T",
		"SELECT * FROM T WHERE",
		"SELECT * FROM T GROUP Sex",
		"SELECT * FROM T GROUP BY",
		"SELECT COUNT( FROM T",
		"SELECT COUNT(*) FROM T LIMIT x",
		"SELECT a AS FROM T",
		"SELECT * FROM T WHERE a = 'unterminated",
		"SELECT * FROM T WHERE a ~ 1",
		"SELECT * FROM T trailing",
		"SELECT SUM(*) FROM T",
		"SELECT * FROM T ORDER BY",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestExecErrors(t *testing.T) {
	cat := patientCatalog(t)
	bad := []string{
		"SELECT * FROM Missing",
		"SELECT Nope FROM Patient",
		"SELECT * FROM Patient WHERE Nope = 1",
		"SELECT Illness FROM Patient GROUP BY Sex",     // non-grouped column
		"SELECT Sex, Income FROM Patient GROUP BY Sex", // ditto
		"SELECT COUNT(*), Illness FROM Patient",        // mixed agg/bare without GROUP BY
		"SELECT * FROM Patient GROUP BY Sex",           // star with group by
		"SELECT COUNT(Nope) FROM Patient",              // unknown agg column
		"SELECT Sex FROM Patient ORDER BY Nope",        // unknown order column
		"SELECT Sex FROM Patient WHERE Illness",        // non-boolean where
		"SELECT COUNT(*) FROM Patient GROUP BY Nope",   // unknown group column
	}
	for _, q := range bad {
		if _, err := Run(cat, q); err == nil {
			t.Errorf("Run(%q) succeeded, want error", q)
		}
	}
}

func TestHavingOnAggregate(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat,
		"SELECT Age, COUNT(*) AS n FROM Patient GROUP BY Age HAVING COUNT(*) >= 2 AND MIN(Income) > 14000")
	if out.NumRows() != 3 {
		t.Errorf("rows = %d, want 3", out.NumRows())
	}
	out = mustRun(t, cat,
		"SELECT Age FROM Patient GROUP BY Age HAVING COUNT(DISTINCT Illness) < 2")
	if out.NumRows() != 1 {
		t.Errorf("attribute-disclosure groups = %d, want 1 (the Diabetes pair)", out.NumRows())
	}
}

func TestAggregateNames(t *testing.T) {
	if (&AggregateCall{Func: AggCount}).Name() != "COUNT(*)" {
		t.Error("COUNT(*) name")
	}
	if (&AggregateCall{Func: AggCountDistinct, Column: "x"}).Name() != "COUNT(DISTINCT x)" {
		t.Error("COUNT DISTINCT name")
	}
	if (&AggregateCall{Func: AggSum, Column: "x"}).Name() != "SUM(x)" {
		t.Error("SUM name")
	}
	for _, f := range []AggFunc{AggCount, AggCountDistinct, AggSum, AggMin, AggMax, AggAvg} {
		if f.String() == "" || f.String() == "AGG" {
			t.Errorf("missing name for %d", f)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat, "select count(*) from Patient group by Sex")
	if out.NumRows() != 2 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestEmptyTableQueries(t *testing.T) {
	sch := table.MustSchema(table.Field{Name: "X", Type: table.String})
	empty, err := table.FromText(sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"E": empty}
	out := mustRun(t, cat, "SELECT COUNT(*) FROM E")
	v, _ := out.Value(0, "COUNT(*)")
	if v.Int() != 0 {
		t.Errorf("count = %v", v)
	}
	out = mustRun(t, cat, "SELECT X, COUNT(*) FROM E GROUP BY X")
	if out.NumRows() != 0 {
		t.Errorf("rows = %d", out.NumRows())
	}
	out = mustRun(t, cat, "SELECT MIN(X) AS m, AVG(X) AS a FROM E")
	if out.NumRows() != 1 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestNegativeNumberLiteral(t *testing.T) {
	sch := table.MustSchema(table.Field{Name: "N", Type: table.Int})
	tbl, err := table.FromText(sch, [][]string{{"-5"}, {"3"}})
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, Catalog{"T": tbl}, "SELECT * FROM T WHERE N < -1")
	if out.NumRows() != 1 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestFloatLiteralAndAvgOutput(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat, "SELECT AVG(Income) AS a FROM Patient WHERE Age = 20")
	v, _ := out.Value(0, "a")
	if v.Float() != 16500 {
		t.Errorf("avg = %v", v)
	}
	out = mustRun(t, cat, "SELECT * FROM Patient WHERE Age > 19.5 AND Age < 20.5")
	if out.NumRows() != 2 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestResultIsPlainTable(t *testing.T) {
	cat := patientCatalog(t)
	out := mustRun(t, cat, "SELECT Sex, COUNT(*) AS n FROM Patient GROUP BY Sex")
	var sb strings.Builder
	if err := out.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.HasPrefix(sb.String(), "Sex,n\n") {
		t.Errorf("csv = %q", sb.String())
	}
}
