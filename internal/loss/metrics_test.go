package loss

import (
	"math"
	"testing"

	"psk/internal/generalize"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/table"
)

func fig3(t *testing.T) (*table.Table, *generalize.Masker) {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"M", "41076"}, {"F", "41099"}, {"M", "41099"}, {"M", "41076"},
		{"F", "43102"}, {"M", "43102"}, {"M", "43102"}, {"F", "43103"},
		{"M", "48202"}, {"M", "48201"},
	})
	if err != nil {
		t.Fatal(err)
	}
	zip, err := hierarchy.NewPrefixSteps("ZipCode", 5, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := generalize.NewMasker([]string{"Sex", "ZipCode"}, hierarchy.MustSet(zip, hierarchy.NewFlat("Sex")))
	if err != nil {
		t.Fatal(err)
	}
	return tbl, m
}

// mask generalizes tbl to node and suppresses the sub-k groups, the
// release pipeline, returning the masked table and the suppressed count.
func mask(t *testing.T, m *generalize.Masker, tbl *table.Table, node lattice.Node, k int) (*table.Table, int) {
	t.Helper()
	g, err := m.Apply(tbl, node)
	if err != nil {
		t.Fatal(err)
	}
	mm, suppressed, err := m.Suppress(g, k)
	if err != nil {
		t.Fatal(err)
	}
	return mm, suppressed
}

func TestHeightRatio(t *testing.T) {
	lat, _ := lattice.New([]int{1, 2})
	if r := HeightRatio(lattice.Node{0, 0}, lat); r != 0 {
		t.Errorf("bottom ratio = %g", r)
	}
	if r := HeightRatio(lattice.Node{1, 2}, lat); r != 1 {
		t.Errorf("top ratio = %g", r)
	}
	if r := HeightRatio(lattice.Node{1, 0}, lat); math.Abs(r-1.0/3.0) > 1e-12 {
		t.Errorf("ratio = %g, want 1/3", r)
	}
	flat, _ := lattice.New([]int{0})
	if r := HeightRatio(lattice.Node{0}, flat); r != 0 {
		t.Errorf("degenerate lattice ratio = %g", r)
	}
}

func TestPrecision(t *testing.T) {
	heights := []int{1, 2}
	// No generalization, nothing suppressed: Prec = 1.
	p, err := Precision(lattice.Node{0, 0}, heights, 10, 10)
	if err != nil || p != 1 {
		t.Errorf("Prec = %g, %v; want 1", p, err)
	}
	// Full generalization: Prec = 0.
	p, _ = Precision(lattice.Node{1, 2}, heights, 10, 10)
	if p != 0 {
		t.Errorf("Prec = %g, want 0", p)
	}
	// Half generalization on one attribute: zip level 1 of 2 over two
	// attributes -> loss = (10*0 + 10*0.5)/20 = 0.25.
	p, _ = Precision(lattice.Node{0, 1}, heights, 10, 10)
	if math.Abs(p-0.75) > 1e-12 {
		t.Errorf("Prec = %g, want 0.75", p)
	}
	// All suppressed: Prec = 0 regardless of node.
	p, _ = Precision(lattice.Node{0, 0}, heights, 10, 0)
	if p != 0 {
		t.Errorf("Prec with all suppressed = %g, want 0", p)
	}
	// Errors.
	if _, err := Precision(lattice.Node{0}, heights, 10, 10); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Precision(lattice.Node{0, 0}, heights, 0, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Precision(lattice.Node{0, 0}, heights, 5, 6); err == nil {
		t.Error("kept>n accepted")
	}
}

func TestPrecisionZeroHeightAttr(t *testing.T) {
	// Attributes with height 0 contribute no loss (they cannot be
	// generalized).
	p, err := Precision(lattice.Node{0}, []int{0}, 10, 10)
	if err != nil || p != 1 {
		t.Errorf("Prec = %g, %v", p, err)
	}
}

func TestDiscernibility(t *testing.T) {
	tbl, m := fig3(t)
	// At <1,2> everything is one group of 10: DM = 100.
	g, _ := m.Apply(tbl, lattice.Node{1, 2})
	dm, err := Discernibility(g, []string{"Sex", "ZipCode"}, 10)
	if err != nil || dm != 100 {
		t.Errorf("DM = %d, %v; want 100", dm, err)
	}
	// At <1,1>: groups 4,4,2 -> 16+16+4 = 36.
	g, _ = m.Apply(tbl, lattice.Node{1, 1})
	dm, _ = Discernibility(g, []string{"Sex", "ZipCode"}, 10)
	if dm != 36 {
		t.Errorf("DM = %d, want 36", dm)
	}
	// Suppressing the 482** pair charges 2*10: groups 4,4 -> 32 + 20 = 52.
	mm, _, err := m.Suppress(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	dm, _ = Discernibility(mm, []string{"Sex", "ZipCode"}, 10)
	if dm != 52 {
		t.Errorf("DM with suppression = %d, want 52", dm)
	}
	if _, err := Discernibility(g, []string{"Sex", "ZipCode"}, 5); err == nil {
		t.Error("n < released accepted")
	}
}

func TestAvgGroupRatio(t *testing.T) {
	tbl, m := fig3(t)
	g, _ := m.Apply(tbl, lattice.Node{1, 1})
	// 10 rows in 3 groups, k=3: (10/3)/3 = 1.111...
	r, err := AvgGroupRatio(g, []string{"Sex", "ZipCode"}, 3)
	if err != nil || math.Abs(r-10.0/9.0) > 1e-12 {
		t.Errorf("C_AVG = %g, %v", r, err)
	}
	empty := g.Filter(func(int) bool { return false })
	r, err = AvgGroupRatio(empty, []string{"Sex", "ZipCode"}, 3)
	if err != nil || r != 0 {
		t.Errorf("empty C_AVG = %g, %v", r, err)
	}
	if _, err := AvgGroupRatio(g, []string{"Sex", "ZipCode"}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSuppressionRatio(t *testing.T) {
	r, err := SuppressionRatio(10, 7)
	if err != nil || math.Abs(r-0.3) > 1e-12 {
		t.Errorf("ratio = %g, %v", r, err)
	}
	if _, err := SuppressionRatio(0, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := SuppressionRatio(5, 6); err == nil {
		t.Error("kept>n accepted")
	}
}

func TestEntropyLoss(t *testing.T) {
	tbl, m := fig3(t)
	// Identity: no loss.
	el, err := EntropyLoss(tbl, tbl, []string{"Sex", "ZipCode"})
	if err != nil || math.Abs(el) > 1e-12 {
		t.Errorf("identity entropy loss = %g, %v", el, err)
	}
	// Full generalization: masked entropy 0, loss = original entropy > 0.
	g, _ := m.Apply(tbl, lattice.Node{1, 2})
	el, err = EntropyLoss(tbl, g, []string{"Sex", "ZipCode"})
	if err != nil || el <= 0 {
		t.Errorf("full generalization entropy loss = %g, %v", el, err)
	}
	// Monotone: more generalization, more loss.
	g1, _ := m.Apply(tbl, lattice.Node{0, 1})
	el1, _ := EntropyLoss(tbl, g1, []string{"Sex", "ZipCode"})
	g2, _ := m.Apply(tbl, lattice.Node{1, 2})
	el2, _ := EntropyLoss(tbl, g2, []string{"Sex", "ZipCode"})
	if el1 > el2 {
		t.Errorf("entropy loss not monotone: %g > %g", el1, el2)
	}
	if _, err := EntropyLoss(tbl, g, []string{"Missing"}); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestMeasure(t *testing.T) {
	tbl, m := fig3(t)
	node := lattice.Node{1, 1}
	mm, _ := mask(t, m, tbl, node, 3)
	rep, err := Measure(Input{
		Initial: tbl, Masked: mm, QIs: []string{"Sex", "ZipCode"},
		Node: node, Lattice: m.Lattice(), K: 3,
	})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if !rep.Node.Equal(node) {
		t.Errorf("node = %v", rep.Node)
	}
	if rep.HeightRatio <= 0 || rep.HeightRatio >= 1 {
		t.Errorf("height ratio = %g", rep.HeightRatio)
	}
	if rep.Precision <= 0 || rep.Precision >= 1 {
		t.Errorf("precision = %g", rep.Precision)
	}
	if rep.Discernibility != 52 {
		t.Errorf("DM = %d, want 52", rep.Discernibility)
	}
	if rep.SuppressionRatio != 0.2 {
		t.Errorf("suppression ratio = %g, want 0.2", rep.SuppressionRatio)
	}
	if rep.EntropyLossBits <= 0 {
		t.Errorf("entropy loss = %g", rep.EntropyLossBits)
	}
	// Mutating the returned node must not affect future calls (Clone).
	rep.Node[0] = 9
	if node[0] == 9 {
		t.Error("Measure aliased the node")
	}
}
