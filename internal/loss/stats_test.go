package loss

import (
	"math"
	"testing"

	"psk/internal/lattice"
	"psk/internal/table"
)

// statsAt materializes the Figure 3 masking at node and returns both
// the masked table (oracle side) and its post-suppression group
// statistics (stats side).
func statsAt(t *testing.T, node lattice.Node, k int) (oracle, stats Report) {
	t.Helper()
	tbl, m := fig3(t)
	mm, _ := mask(t, m, tbl, node, k)
	qis := []string{"Sex", "ZipCode"}
	oracle, err := Measure(Input{
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
	base := baselineOf(t, tbl, qis)
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
	mm, sup := mask(t, m, tbl, lattice.Node{0, 0}, 3)
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
	base := baselineOf(t, tbl, qis)
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
	short := baselineOf(t, tbl, []string{"Sex"})
	if _, err := EntropyLossStats(ps, short); err == nil {
		t.Error("QI-count mismatch accepted")
	}
	if _, err := BaselineFromStats(nil); err == nil {
		t.Error("nil base statistics accepted")
	}
}

// baselineOf builds the entropy baseline a search builds: from the
// initial table's base statistics.
func baselineOf(t *testing.T, im *table.Table, qis []string) *Baseline {
	t.Helper()
	bs, err := im.GroupStats(qis, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BaselineFromStats(bs)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestBaselineFromStatsMatchesColumnEntropy: the baseline read off the
// base statistics must equal the table path's per-column entropies bit
// for bit, on string and int QIs alike.
func TestBaselineFromStatsMatchesColumnEntropy(t *testing.T) {
	tbl, _ := fig3(t)
	ints, err := table.FromText(table.MustSchema(
		table.Field{Name: "Age", Type: table.Int},
		table.Field{Name: "Sex", Type: table.String},
	), [][]string{{"41", "M"}, {"-7", "F"}, {"41", "F"}, {"1099511627776", "M"}, {"41", "M"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tbl *table.Table
		qis []string
	}{{tbl, []string{"Sex", "ZipCode"}}, {tbl, []string{"ZipCode"}}, {ints, []string{"Age", "Sex"}}} {
		base := baselineOf(t, c.tbl, c.qis)
		for i, q := range c.qis {
			want, err := columnEntropy(c.tbl, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(base.entropies[i]) != math.Float64bits(want) {
				t.Errorf("%v: %s entropy %x, columnEntropy %x", c.qis, q,
					math.Float64bits(base.entropies[i]), math.Float64bits(want))
			}
		}
	}
}
