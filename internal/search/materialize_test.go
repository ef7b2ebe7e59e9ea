package search

import (
	"errors"
	"slices"
	"testing"

	"psk/internal/table"
)

// TestMaterializeChecksStatistics: a node's masked table is released
// only when its rows equal, group for group, the statistics its verdict
// was drawn from. Under every strategy, the found node's roll-up-store
// entry is replaced by statistics with one row moved between two groups
// of at least k+1: the verdict and the sub-k count do not move, so only
// the rows can tell. The walk must fail with table.ErrStatsMismatch and
// release no table.
func TestMaterializeChecksStatistics(t *testing.T) {
	src, cfg := adultSample(t, 30000)
	im, err := src.Sample(1000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	for s := range numStrategies {
		t.Run(s.String(), func(t *testing.T) {
			clean, err := Run(im, cfg, s)
			if err != nil || !clean.Found {
				t.Fatalf("clean run: found %v err %v", clean.Found, err)
			}
			m, err := cfg.validate()
			if err != nil {
				t.Fatal(err)
			}
			good, err := newEvaluator(im, m, nil, cfg).statsFor(clean.Node)
			if err != nil {
				t.Fatal(err)
			}
			bad := *good
			bad.Groups = slices.Clone(good.Groups)
			var moved []int
			for i := range bad.Groups {
				if bad.Groups[i].Size > cfg.K && len(moved) < 2 {
					moved = append(moved, i)
				}
			}
			if len(moved) < 2 {
				t.Fatalf("node %v has fewer than two groups above k", clean.Node)
			}
			bad.Groups[moved[0]].Size++
			bad.Groups[moved[1]].Size--

			e := newEvaluator(im, m, nil, cfg)
			e.rollups.seed(clean.Node, &bad)
			lat := m.Lattice()
			base, err := e.statsFor(lat.Bottom())
			if err != nil {
				t.Fatal(err)
			}
			bounds, err := statsBounds(cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			e.bind(bounds)
			var res Result
			err = strategies[s].walk(e, lat, &res)
			if !errors.Is(err, table.ErrStatsMismatch) {
				t.Fatalf("walk over corrupted statistics of %v: err %v, want ErrStatsMismatch", clean.Node, err)
			}
			for _, mn := range res.Minimal {
				if mn.Masked != nil {
					t.Errorf("node %v released a table", mn.Node)
				}
			}
		})
	}
}
