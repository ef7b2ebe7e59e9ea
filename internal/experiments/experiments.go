// Package experiments implements one runner per table and figure of the
// paper's evaluation, plus the ablation and utility studies DESIGN.md
// calls out. Each runner returns a structured result and can render the
// same rows the paper reports; cmd/pskexp prints them and the top-level
// benchmarks regenerate them under the Go benchmark harness.
package experiments

import (
	"fmt"
	"strings"

	"psk/internal/hierarchy"
	"psk/internal/search"
	"psk/internal/table"
)

// patientSchema is the Table 1 / Table 3 schema.
func patientSchema(income bool) table.Schema {
	fields := []table.Field{
		{Name: "Age", Type: table.Int},
		{Name: "ZipCode", Type: table.String},
		{Name: "Sex", Type: table.String},
		{Name: "Illness", Type: table.String},
	}
	if income {
		fields = append(fields, table.Field{Name: "Income", Type: table.Int})
	}
	return table.Schema{Fields: fields}
}

// Table1 returns the paper's Table 1 masked patient microdata.
func Table1() (*table.Table, error) {
	return table.FromText(patientSchema(false), [][]string{
		{"50", "43102", "M", "Colon Cancer"},
		{"30", "43102", "F", "Breast Cancer"},
		{"30", "43102", "F", "HIV"},
		{"20", "43102", "M", "Diabetes"},
		{"20", "43102", "M", "Diabetes"},
		{"50", "43102", "M", "Heart Disease"},
	})
}

// Table2 returns the paper's Table 2 external identified table.
func Table2() (*table.Table, error) {
	sch := table.MustSchema(
		table.Field{Name: "Name", Type: table.String},
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	return table.FromText(sch, [][]string{
		{"Sam", "29", "M", "43102"},
		{"Gloria", "38", "F", "43102"},
		{"Adam", "51", "M", "43102"},
		{"Eric", "29", "M", "43102"},
		{"Tanisha", "34", "F", "43102"},
		{"Don", "51", "M", "43102"},
	})
}

// Table3 returns the paper's Table 3 masked microdata (3-anonymous,
// 1-sensitive).
func Table3() (*table.Table, error) {
	return table.FromText(patientSchema(true), [][]string{
		{"20", "43102", "F", "AIDS", "50000"},
		{"20", "43102", "F", "AIDS", "50000"},
		{"20", "43102", "F", "Diabetes", "50000"},
		{"30", "43102", "M", "Diabetes", "30000"},
		{"30", "43102", "M", "Diabetes", "40000"},
		{"30", "43102", "M", "Heart Disease", "30000"},
		{"30", "43102", "M", "Heart Disease", "40000"},
	})
}

// Figure3Data returns the 10-row Sex/ZipCode microdata of Figure 3.
func Figure3Data() (*table.Table, error) {
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	return table.FromText(sch, [][]string{
		{"M", "41076"}, {"F", "41099"}, {"M", "41099"}, {"M", "41076"},
		{"F", "43102"}, {"M", "43102"}, {"M", "43102"}, {"F", "43103"},
		{"M", "48202"}, {"M", "48201"},
	})
}

// Figure3Hierarchies returns the hierarchy set of Figures 2-3: Sex (M/F
// -> Person) and ZipCode (5-digit -> 431** -> one group).
func Figure3Hierarchies() (*hierarchy.Set, error) {
	zip, err := hierarchy.NewPrefixSteps("ZipCode", 5, []int{2, 5})
	if err != nil {
		return nil, err
	}
	sex := hierarchy.NewFlat("Sex")
	sex.Top = "Person"
	return hierarchy.NewSet(zip, sex)
}

// namedStrategy is a search strategy under the name an experiment's
// table prints for it.
type namedStrategy struct {
	name     string
	strategy search.Strategy
}

// row formats a fixed-width report row.
func row(b *strings.Builder, cells []string, widths []int) {
	for i, c := range cells {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
}

// renderTable renders a header and rows with auto-sized columns.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	row(&b, header, widths)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	row(&b, sep, widths)
	for _, r := range rows {
		row(&b, r, widths)
	}
	return b.String()
}
