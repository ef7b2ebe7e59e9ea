package search

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"psk/internal/loss"
	"psk/internal/obs"
	"psk/internal/table"
)

// checkReleased asserts that res releases exactly what the row-scan
// oracle's pipeline builds at Minimal[0], Masker.Apply then
// Masker.SuppressWithin, byte for byte, and nothing when nothing was
// found.
func checkReleased(t *testing.T, im *table.Table, cfg Config, res Result) {
	t.Helper()
	if !res.Found {
		if res.Masked != nil || len(res.Minimal) != 0 {
			t.Fatalf("found nothing but released a table (%d minimal nodes)", len(res.Minimal))
		}
		return
	}
	if !res.Node.Equal(res.Minimal[0].Node) || res.Suppressed != res.Minimal[0].Suppressed {
		t.Fatalf("released node %v (sup %d), Minimal[0] %v (sup %d)", res.Node, res.Suppressed, res.Minimal[0].Node, res.Minimal[0].Suppressed)
	}
	if got, want := fmtMasked(res.Masked), fmtMasked(rowScanRelease(t, im, cfg, res.Minimal[0])); got != want {
		t.Fatalf("released table at %v differs from the row-scan pipeline's:\n%s\nwant\n%s", res.Node, got, want)
	}
}

// materializeCalls is the report's materialize phase count.
func materializeCalls(rep *obs.Report) int64 {
	for _, p := range rep.Phases {
		if p.Phase == obs.PhaseMaterialize.String() {
			return p.Count
		}
	}
	return 0
}

// TestOneBuildPerSearch: a search materializes one table, the one it
// releases. Under every strategy, at workers 1 and 4, on a fixture with
// several minimal nodes, the report counts one materialize call and the
// release equals the row-scan pipeline's table at Result.Node; a search
// that finds nothing (K above the row count, no suppression) counts
// none.
func TestOneBuildPerSearch(t *testing.T) {
	tbl, cfg := randomSearchFixture(t, rand.New(rand.NewSource(7)), 200)
	cfg.K, cfg.P, cfg.MaxSuppress = 3, 2, 4
	ex, err := Run(tbl, cfg, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Minimal) < 2 {
		t.Fatalf("fixture has %d minimal nodes, want several", len(ex.Minimal))
	}
	none := cfg
	none.K, none.P, none.MaxSuppress = tbl.NumRows()+1, 1, 0
	for s := range numStrategies {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", s, w), func(t *testing.T) {
				for _, c := range []struct {
					cfg   Config
					found bool
				}{{cfg, true}, {none, false}} {
					c.cfg.Workers = w
					c.cfg.Recorder = obs.NewRecorder()
					res, err := Run(tbl, c.cfg, s)
					if err != nil {
						t.Fatal(err)
					}
					if res.Found != c.found {
						t.Fatalf("K=%d: found %v, want %v", c.cfg.K, res.Found, c.found)
					}
					want := int64(0)
					if c.found {
						want = 1
					}
					if got := materializeCalls(res.Report); got != want {
						t.Errorf("K=%d: %d materialize calls for %d minimal nodes, want %d", c.cfg.K, got, len(res.Minimal), want)
					}
					checkReleased(t, tbl, c.cfg, res)
				}
			})
		}
	}
}

// TestMaterializeChecksStatistics: a node's masked table is released
// only when its rows equal, group for group, the statistics its verdict
// was drawn from. Under every strategy, the found node's roll-up-store
// entry is replaced by statistics with one row moved between two groups
// of at least k+1: the verdict and the sub-k count do not move, so only
// the rows can tell. The walk still finds the node; the release step
// after it must fail with table.ErrStatsMismatch and release no table.
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
			good, err := newEvaluator(im, m, cfg).statsFor(clean.Node)
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

			e := newEvaluator(im, m, cfg)
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
			if err := strategies[s].walk(e, lat, &res); err != nil {
				t.Fatal(err)
			}
			if len(res.Minimal) == 0 || !res.Minimal[0].Node.Equal(clean.Node) {
				t.Fatalf("walk over corrupted statistics found %v, want %v first", res.Minimal, clean.Node)
			}
			baseline, err := loss.BaselineFromStats(base)
			if err != nil {
				t.Fatal(err)
			}
			err = e.release(lat, baseline, &res)
			if !errors.Is(err, table.ErrStatsMismatch) {
				t.Fatalf("release over corrupted statistics of %v: err %v, want ErrStatsMismatch", clean.Node, err)
			}
			if res.Found || res.Masked != nil {
				t.Errorf("node %v released a table", clean.Node)
			}
		})
	}
}
