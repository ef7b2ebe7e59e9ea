package generalize

import (
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/table"
)

// figure3Table reproduces the 10-row Sex/ZipCode microdata of the
// paper's Figure 3.
func figure3Table(t *testing.T) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"M", "41076"},
		{"F", "41099"},
		{"M", "41099"},
		{"M", "41076"},
		{"F", "43102"},
		{"M", "43102"},
		{"M", "43102"},
		{"F", "43103"},
		{"M", "48202"},
		{"M", "48201"},
	})
	if err != nil {
		t.Fatalf("FromText: %v", err)
	}
	return tbl
}

// figure3Masker builds the masker matching the paper's Figure 3 lattice:
// Sex (M/F -> Person) and ZipCode with Z1 = last two digits suppressed
// (431**) and Z2 = one group. These levels are what reproduce the
// paper's violation counts and Table 4's minimal generalizations.
func figure3Masker(t *testing.T) *Masker {
	t.Helper()
	zip, err := hierarchy.NewPrefixSteps("ZipCode", 5, []int{2, 5})
	if err != nil {
		t.Fatalf("NewPrefixSteps: %v", err)
	}
	m, err := NewMasker([]string{"Sex", "ZipCode"}, hierarchy.MustSet(zip, NewSexFlat()))
	if err != nil {
		t.Fatalf("NewMasker: %v", err)
	}
	return m
}

// violatingTuples counts the tuples whose QI-group has fewer than k
// members — the number suppression must remove for the table to become
// k-anonymous (the parenthesized counts of Figure 3).
func violatingTuples(t *testing.T, tbl *table.Table, k int) int {
	t.Helper()
	s, err := tbl.GroupStats([]string{"Sex", "ZipCode"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s.TuplesBelow(k)
}

// NewSexFlat builds the paper's Sex hierarchy (M/F -> Person).
func NewSexFlat() *hierarchy.Flat {
	f := hierarchy.NewFlat("Sex")
	f.Top = "Person"
	return f
}

func TestNewMaskerValidation(t *testing.T) {
	zip, _ := hierarchy.NewPrefix("ZipCode", 5, 2)
	set := hierarchy.MustSet(zip)
	if _, err := NewMasker(nil, set); err == nil {
		t.Error("empty QI list accepted")
	}
	if _, err := NewMasker([]string{"Age"}, set); err == nil {
		t.Error("missing hierarchy accepted")
	}
	m, err := NewMasker([]string{"ZipCode"}, set)
	if err != nil {
		t.Fatalf("NewMasker: %v", err)
	}
	if m.Lattice().Height() != 2 {
		t.Errorf("lattice height = %d", m.Lattice().Height())
	}
	qis := m.QuasiIdentifiers()
	qis[0] = "mutated"
	if m.QuasiIdentifiers()[0] != "ZipCode" {
		t.Error("QuasiIdentifiers leaks internal slice")
	}
}

func TestApplyIdentity(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	out, err := m.Apply(tbl, lattice.Node{0, 0})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	v, _ := out.Value(0, "ZipCode")
	if v.Str() != "41076" {
		t.Errorf("identity apply changed value: %q", v.Str())
	}
}

func TestApplyGeneralizes(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	out, err := m.Apply(tbl, lattice.Node{1, 1})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	sex, _ := out.Value(0, "Sex")
	zip, _ := out.Value(0, "ZipCode")
	if sex.Str() != "Person" || zip.Str() != "410**" {
		t.Errorf("apply = %q/%q, want Person/410**", sex.Str(), zip.Str())
	}
	top, err := m.Apply(tbl, lattice.Node{1, 2})
	if err != nil {
		t.Fatalf("Apply top: %v", err)
	}
	zip, _ = top.Value(0, "ZipCode")
	if zip.Str() != hierarchy.Suppressed {
		t.Errorf("top zip = %q, want %q", zip.Str(), hierarchy.Suppressed)
	}
	// Original table untouched.
	orig, _ := tbl.Value(0, "Sex")
	if orig.Str() != "M" {
		t.Error("Apply mutated input table")
	}
}

func TestApplyRejectsBadNode(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	if _, err := m.Apply(tbl, lattice.Node{0, 3}); err == nil {
		t.Error("out-of-lattice node accepted")
	}
	if _, err := m.Apply(tbl, lattice.Node{0}); err == nil {
		t.Error("wrong-length node accepted")
	}
}

// TestFigure3ViolationCounts reproduces the parenthesized counts of
// Figure 3: tuples failing 3-anonymity at each lattice node.
func TestFigure3ViolationCounts(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	cases := []struct {
		node lattice.Node
		want int
	}{
		{lattice.Node{0, 0}, 10}, // <S0,Z0>: all groups < 3
		{lattice.Node{1, 0}, 7},  // <S1,Z0>
		{lattice.Node{0, 1}, 7},  // <S0,Z1>
		{lattice.Node{1, 1}, 2},  // <S1,Z1>
		{lattice.Node{0, 2}, 0},  // <S0,Z2>: M x7, F x3
		{lattice.Node{1, 2}, 0},  // <S1,Z2>: one group of 10
	}
	for _, c := range cases {
		g, err := m.Apply(tbl, c.node)
		if err != nil {
			t.Fatalf("Apply(%v): %v", c.node, err)
		}
		if n := violatingTuples(t, g, 3); n != c.want {
			t.Errorf("violations at %v = %d, want %d", c.node, n, c.want)
		}
	}
}

func TestSuppress(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	g, _ := m.Apply(tbl, lattice.Node{0, 1}) // 7 violating tuples
	mm, suppressed, err := m.Suppress(g, 3)
	if err != nil {
		t.Fatalf("Suppress: %v", err)
	}
	if suppressed != 7 {
		t.Errorf("suppressed = %d, want 7", suppressed)
	}
	if mm.NumRows() != 3 {
		t.Errorf("remaining rows = %d, want 3", mm.NumRows())
	}
	// Result is 3-anonymous.
	if n := violatingTuples(t, mm, 3); n != 0 {
		t.Errorf("masked table still has %d violating tuples", n)
	}
	// The surviving group is the 410** males.
	zip, _ := mm.Value(0, "ZipCode")
	if zip.Str() != "410**" {
		t.Errorf("surviving zip = %q", zip.Str())
	}
}

func TestSuppressPreservesRowOrder(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	g, _ := m.Apply(tbl, lattice.Node{1, 1}) // 2 violators (4820* group)
	mm, suppressed, _ := m.Suppress(g, 3)
	if suppressed != 2 || mm.NumRows() != 8 {
		t.Fatalf("suppressed=%d rows=%d", suppressed, mm.NumRows())
	}
	// Rows must appear in original relative order: first row is 410**.
	zip, _ := mm.Value(0, "ZipCode")
	if zip.Str() != "410**" {
		t.Errorf("first surviving zip = %q, want 410**", zip.Str())
	}
	last, _ := mm.Value(7, "ZipCode")
	if last.Str() != "431**" {
		t.Errorf("last surviving zip = %q, want 431**", last.Str())
	}
}

func TestMaskPipeline(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	g, err := m.Apply(tbl, lattice.Node{1, 1})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	mm, suppressed, err := m.Suppress(g, 3)
	if err != nil {
		t.Fatalf("Suppress: %v", err)
	}
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", suppressed)
	}
	if violatingTuples(t, mm, 3) != 0 {
		t.Error("masked output not k-anonymous")
	}
	if _, err := m.Apply(tbl, lattice.Node{9, 9}); err == nil {
		t.Error("Apply with bad node should fail")
	}
}

func TestKValidation(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	if _, _, err := m.Suppress(tbl, 0); err == nil {
		t.Error("k=0 accepted by Suppress")
	}
}

func TestSuppressK1IsNoOp(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	mm, suppressed, err := m.Suppress(tbl, 1)
	if err != nil || suppressed != 0 || mm.NumRows() != 10 {
		t.Errorf("Suppress k=1: rows=%d suppressed=%d err=%v", mm.NumRows(), suppressed, err)
	}
}

// Property-style check across all lattice nodes: the number of
// violating tuples never increases as we move up a generalization path
// (the monotonicity Figure 3 relies on), and Suppress output is always
// k-anonymous.
func TestViolationMonotonicityAcrossLattice(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	lat := m.Lattice()
	viol := make(map[string]int)
	for _, node := range lat.AllNodes() {
		g, err := m.Apply(tbl, node)
		if err != nil {
			t.Fatalf("Apply(%v): %v", node, err)
		}
		viol[node.Key()] = violatingTuples(t, g, 3)

		mm, _, err := m.Suppress(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if left := violatingTuples(t, mm, 3); left != 0 {
			t.Errorf("Suppress at %v left %d violators", node, left)
		}
	}
	for _, node := range lat.AllNodes() {
		for _, succ := range lat.Successors(node) {
			if viol[succ.Key()] > viol[node.Key()] {
				t.Errorf("violations increased along %v -> %v: %d -> %d",
					node, succ, viol[node.Key()], viol[succ.Key()])
			}
		}
	}
}

func TestSuppressCells(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	g, _ := m.Apply(tbl, lattice.Node{1, 1}) // 482** pair violates k=3
	out, suppressed, err := m.SuppressCells(g, 3)
	if err != nil {
		t.Fatalf("SuppressCells: %v", err)
	}
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", suppressed)
	}
	// No rows lost.
	if out.NumRows() != tbl.NumRows() {
		t.Errorf("rows = %d, want %d", out.NumRows(), tbl.NumRows())
	}
	// The two 482** records now carry "*" in every QI cell.
	stars := 0
	for r := 0; r < out.NumRows(); r++ {
		sex, _ := out.Value(r, "Sex")
		zip, _ := out.Value(r, "ZipCode")
		if sex.Str() == "*" {
			if zip.Str() != "*" {
				t.Errorf("row %d partially suppressed: %s/%s", r, sex.Str(), zip.Str())
			}
			stars++
		}
	}
	if stars != 2 {
		t.Errorf("fully masked rows = %d, want 2", stars)
	}
	// With only 2 masked rows the "*" group is itself undersized for
	// k=3: local suppression trades row loss for that residual group.
	if n := violatingTuples(t, out, 3); n != 2 {
		t.Errorf("residual violators = %d, want 2 (the * group)", n)
	}
}

func TestSuppressCellsNoViolations(t *testing.T) {
	m := figure3Masker(t)
	tbl := figure3Table(t)
	g, _ := m.Apply(tbl, lattice.Node{1, 2}) // one group of 10
	out, suppressed, err := m.SuppressCells(g, 3)
	if err != nil || suppressed != 0 {
		t.Errorf("suppressed = %d, %v; want 0", suppressed, err)
	}
	if out != g {
		t.Error("no-op suppression should return the input table")
	}
}

func TestSuppressCellsReachesK(t *testing.T) {
	// Three singleton groups collapse into one "*" group of size 3:
	// the result is 3-anonymous.
	m := figure3Masker(t)
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"M", "41076"}, {"F", "43102"}, {"M", "48201"},
		{"M", "41099"}, {"M", "41099"}, {"M", "41099"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, suppressed, err := m.SuppressCells(tbl, 3)
	if err != nil || suppressed != 3 {
		t.Fatalf("suppressed = %d, %v; want 3", suppressed, err)
	}
	if n := violatingTuples(t, out, 3); n != 0 {
		t.Errorf("residual violators = %d, want 0", n)
	}
}
