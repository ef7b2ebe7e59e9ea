//go:build !race

// The million-row tier allocates tens of millions of rows' worth of
// packed columns; under the race detector that footprint and slowdown
// would dominate `make race`, so this file is plain-build only (the
// same kernels are race-tested on smaller tables in internal/table).

package psk

import (
	"testing"
	"time"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/search"
)

// TestScaleMillionRows drives the columnar substrate at its design
// point: the 48,842-row Adult shape scaled x20 (~977k rows). It pins
// the two scale properties the substrate exists for — allocations per
// row must stay flat as the table grows 10x (arena-backed chunked
// scans allocate per group and per block, not per row), and the full
// Samarati search over the scaled table must land on a verified
// p-sensitive k-anonymous result where the reference CheckBasic scan
// and the policy/group-stats path agree.
func TestScaleMillionRows(t *testing.T) {
	if testing.Short() {
		t.Skip("million-row scale test skipped in -short mode")
	}
	start := time.Now()
	small, err := dataset.GenerateScaled(2, 2006)
	if err != nil {
		t.Fatal(err)
	}
	big, err := dataset.GenerateScaled(20, 2006)
	if err != nil {
		t.Fatal(err)
	}
	qis := dataset.QIs()
	conf := dataset.Confidential()

	// Allocation flatness: allocs/row on the ~1M-row table must stay
	// within 2x of the ~100k-row table. AllocsPerRun's warm-up call
	// primes the arena pool, so the measured runs see steady state.
	perRow := func(tblRows int, f func()) float64 {
		return testing.AllocsPerRun(3, f) / float64(tblRows)
	}
	smallRate := perRow(small.NumRows(), func() {
		if _, err := small.GroupStats(qis, conf, 1); err != nil {
			t.Fatal(err)
		}
	})
	bigRate := perRow(big.NumRows(), func() {
		if _, err := big.GroupStats(qis, conf, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("GroupStats allocs/row: %.4f at %d rows, %.4f at %d rows",
		smallRate, small.NumRows(), bigRate, big.NumRows())
	if bigRate > 2*smallRate {
		t.Errorf("allocs/row grew with table size: %.4f at 1M vs %.4f at 100k (limit 2x)",
			bigRate, smallRate)
	}

	// Full search at a million rows, then both verdict implementations
	// of Definition 2 on the masked output.
	hs, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	cfg := search.Config{
		QIs:           qis,
		Confidential:  conf,
		Hierarchies:   hs,
		K:             10,
		P:             2,
		MaxSuppress:   big.NumRows() / 100,
		UseConditions: true,
	}
	res, err := search.Run(big, cfg, search.StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no solution on the million-row workload")
	}
	chk, err := core.Check(res.Masked, cfg.QIs, cfg.Confidential, cfg.P, cfg.K)
	if err != nil || !chk.Satisfied {
		t.Fatalf("policy-path verification failed: %+v, %v", chk, err)
	}
	basic, err := core.CheckBasic(res.Masked, cfg.QIs, cfg.Confidential, cfg.P, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	if !basic {
		t.Fatal("CheckBasic and the policy path disagree on the masked result")
	}
	t.Logf("1M pipeline: node %v, %d suppressed, %v", res.Node, res.Suppressed, time.Since(start))
}
