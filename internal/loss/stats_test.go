package loss

import (
	"math"
	"testing"

	"psk/internal/lattice"
)

// statsAt materializes the Figure 3 masking at node and returns both
// the masked table (oracle side) and its post-suppression group
// statistics (stats side).
func statsAt(t *testing.T, node lattice.Node, k int) (oracle, stats Report) {
	t.Helper()
	tbl, m := fig3(t)
	mm, _, err := m.Mask(tbl, node, k)
	if err != nil {
		t.Fatal(err)
	}
	qis := []string{"Sex", "ZipCode"}
	oracle, err = Measure(Input{
		Initial: tbl, Masked: mm, QIs: qis,
		Node: node, Lattice: m.Lattice(), K: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := mm.GroupStats(qis, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewBaseline(tbl, qis)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = MeasureStats(StatsInput{
		Stats: ps, Rows: tbl.NumRows(), Baseline: base,
		Node: node, Lattice: m.Lattice(), K: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return oracle, stats
}

// TestMeasureStatsMatchesOracle: the stats path must reproduce the
// table path bit-for-bit at every node of the Figure 3 lattice.
func TestMeasureStatsMatchesOracle(t *testing.T) {
	for _, node := range []lattice.Node{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 2}, {1, 2}} {
		// Skip maskings whose suppression exceeds what Mask allows — Mask
		// has no threshold, it suppresses whatever violates k.
		oracle, stats := statsAt(t, node, 3)
		if oracle.Discernibility != stats.Discernibility {
			t.Errorf("node %v: DM %d vs %d", node, stats.Discernibility, oracle.Discernibility)
		}
		pairs := []struct {
			name      string
			got, want float64
		}{
			{"height", stats.HeightRatio, oracle.HeightRatio},
			{"precision", stats.Precision, oracle.Precision},
			{"avg-group", stats.AvgGroupRatio, oracle.AvgGroupRatio},
			{"suppression", stats.SuppressionRatio, oracle.SuppressionRatio},
			{"entropy", stats.EntropyLossBits, oracle.EntropyLossBits},
		}
		for _, p := range pairs {
			if math.Float64bits(p.got) != math.Float64bits(p.want) {
				t.Errorf("node %v: %s = %x, oracle %x", node, p.name,
					math.Float64bits(p.got), math.Float64bits(p.want))
			}
		}
		if !stats.Node.Equal(node) {
			t.Errorf("node %v: report node %v", node, stats.Node)
		}
	}
}

// TestStatsEdgeCases: empty release (everything suppressed) and
// argument validation.
func TestStatsEdgeCases(t *testing.T) {
	tbl, m := fig3(t)
	qis := []string{"Sex", "ZipCode"}
	// At <0,0> with k=3 everything is suppressed (all groups < 3).
	mm, sup, err := m.Mask(tbl, lattice.Node{0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mm.NumRows() != 0 || sup != 10 {
		t.Fatalf("expected empty release, got %d rows, %d suppressed", mm.NumRows(), sup)
	}
	ps, err := mm.GroupStats(qis, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dm, err := DiscernibilityStats(ps, 10); err != nil || dm != 100 {
		t.Errorf("empty-release DM = %d, %v; want 100", dm, err)
	}
	if r, err := AvgGroupRatioStats(ps, 3); err != nil || r != 0 {
		t.Errorf("empty-release C_AVG = %g, %v; want 0", r, err)
	}
	base, err := NewBaseline(tbl, qis)
	if err != nil {
		t.Fatal(err)
	}
	el, err := EntropyLossStats(ps, base)
	if err != nil {
		t.Fatal(err)
	}
	// Empty masked column has entropy 0, so the loss is the baseline sum.
	wantEL, err := EntropyLoss(tbl, mm, qis)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(el) != math.Float64bits(wantEL) {
		t.Errorf("empty-release entropy loss %g, oracle %g", el, wantEL)
	}

	// Validation.
	if _, err := DiscernibilityStats(ps, -1); err == nil {
		t.Error("n < released accepted")
	}
	if _, err := AvgGroupRatioStats(ps, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := EntropyLossStats(ps, nil); err == nil {
		t.Error("nil baseline accepted")
	}
	short, err := NewBaseline(tbl, []string{"Sex"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EntropyLossStats(ps, short); err == nil {
		t.Error("QI-count mismatch accepted")
	}
	if _, err := NewBaseline(tbl, []string{"Missing"}); err == nil {
		t.Error("missing attribute accepted")
	}
	if got := short.QIs(); len(got) != 1 || got[0] != "Sex" {
		t.Errorf("baseline QIs = %v", got)
	}
}
