package experiments

import (
	"fmt"
	"strings"

	"psk/internal/core"
	"psk/internal/search"
	"psk/internal/table"
)

// E6: Table 4 — 3-minimal generalizations per suppression threshold.

// Table4Row is one TS entry of Table 4.
type Table4Row struct {
	TS    int
	Nodes []string
}

// Table4Result is the full Table 4.
type Table4Result struct {
	K    int
	Rows []Table4Row
}

// RunTable4 reproduces Table 4: for every suppression threshold TS from
// 0 to 10, the 3-minimal generalizations of the Figure 3 microdata.
func RunTable4() (Table4Result, error) {
	tbl, err := Figure3Data()
	if err != nil {
		return Table4Result{}, err
	}
	hs, err := Figure3Hierarchies()
	if err != nil {
		return Table4Result{}, err
	}
	res := Table4Result{K: 3}
	for ts := 0; ts <= tbl.NumRows(); ts++ {
		ex, err := search.Run(tbl, search.Config{
			QIs:           []string{"Sex", "ZipCode"},
			Hierarchies:   hs,
			K:             3,
			P:             1,
			MaxSuppress:   ts,
			UseConditions: true,
		}, search.StrategyExhaustive)
		if err != nil {
			return Table4Result{}, err
		}
		row := Table4Row{TS: ts}
		for _, m := range ex.Minimal {
			row.Nodes = append(row.Nodes, m.Node.Label([]string{"S", "Z"}))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders Table 4.
func (r Table4Result) Format() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{fmt.Sprint(row.TS), strings.Join(row.Nodes, " and ")}
	}
	return fmt.Sprintf("%d-minimal generalizations per suppression threshold (Table 4):\n%s",
		r.K, renderTable([]string{"TS", "Minimal nodes"}, rows))
}

// E7: Tables 5 and 6 — the frequency sets and maxGroups of Example 1.

// FrequencyRow is one confidential attribute's frequency data.
type FrequencyRow struct {
	Attribute  string
	Distinct   int
	Freq       []int
	Cumulative []int
}

// Example1Result reproduces Tables 5-6 and the maxGroups walk-through.
type Example1Result struct {
	N     int
	Rows  []FrequencyRow
	CFMax []int
	MaxP  int
	// MaxGroups[p] for p = 2..MaxP.
	MaxGroups map[int]int
}

// BuildExample1 constructs the synthetic 1000-tuple microdata of
// Example 1, with confidential attribute frequencies exactly as printed.
func BuildExample1() (*table.Table, error) {
	freqs := map[string][]int{
		"S1": {300, 300, 200, 100, 100},
		"S2": {500, 300, 100, 40, 35, 25},
		"S3": {700, 200, 50, 10, 10, 10, 10, 5, 3, 2},
	}
	expand := func(name string) []string {
		var out []string
		for i, f := range freqs[name] {
			for j := 0; j < f; j++ {
				out = append(out, fmt.Sprintf("%s-v%02d", name, i))
			}
		}
		return out
	}
	sch := table.MustSchema(
		table.Field{Name: "K1", Type: table.Int},
		table.Field{Name: "K2", Type: table.Int},
		table.Field{Name: "S1", Type: table.String},
		table.Field{Name: "S2", Type: table.String},
		table.Field{Name: "S3", Type: table.String},
	)
	s1, s2, s3 := expand("S1"), expand("S2"), expand("S3")
	b, err := table.NewBuilder(sch)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 1000; i++ {
		b.Append(table.IV(int64(i%10)), table.IV(int64(i%7)),
			table.SV(s1[i]), table.SV(s2[i]), table.SV(s3[i]))
	}
	return b.Build()
}

// RunExample1 computes the paper's Tables 5-6 values and the maximum
// allowed group counts for every feasible p.
func RunExample1() (Example1Result, error) {
	tbl, err := BuildExample1()
	if err != nil {
		return Example1Result{}, err
	}
	conf := []string{"S1", "S2", "S3"}
	res := Example1Result{N: tbl.NumRows(), MaxGroups: make(map[int]int)}
	for _, attr := range conf {
		f, err := core.FrequencySet(tbl, attr)
		if err != nil {
			return Example1Result{}, err
		}
		res.Rows = append(res.Rows, FrequencyRow{
			Attribute:  attr,
			Distinct:   len(f),
			Freq:       f,
			Cumulative: core.Cumulative(f),
		})
	}
	res.CFMax, err = core.CFMax(tbl, conf)
	if err != nil {
		return Example1Result{}, err
	}
	res.MaxP, err = core.MaxP(tbl, conf)
	if err != nil {
		return Example1Result{}, err
	}
	for p := 2; p <= res.MaxP; p++ {
		g, err := core.MaxGroups(tbl, conf, p)
		if err != nil {
			return Example1Result{}, err
		}
		res.MaxGroups[p] = g
	}
	return res, nil
}

// Format renders the frequency tables and bounds.
func (r Example1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Example 1 (n = %d):\n", r.N)
	var rows [][]string
	for _, fr := range r.Rows {
		rows = append(rows, []string{fr.Attribute, fmt.Sprint(fr.Distinct),
			intsToString(fr.Freq), intsToString(fr.Cumulative)})
	}
	b.WriteString(renderTable([]string{"Attr", "s_j", "f_i (Table 5)", "cf_i (Table 6)"}, rows))
	fmt.Fprintf(&b, "cf_i (max over attributes): %s\n", intsToString(r.CFMax))
	fmt.Fprintf(&b, "maxP = %d\n", r.MaxP)
	for p := 2; p <= r.MaxP; p++ {
		fmt.Fprintf(&b, "maxGroups(p=%d) = %d\n", p, r.MaxGroups[p])
	}
	return b.String()
}

func intsToString(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, " ")
}
