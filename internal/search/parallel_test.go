package search

import (
	"fmt"
	"testing"

	"psk/internal/table"
)

// The parallel engine promises results byte-identical to the serial
// scan at every worker count: same found nodes, same masked microdata,
// same stats totals. These tests exercise that promise across every
// strategy and worker counts beyond GOMAXPROCS; run them with -race to
// also exercise the synchronization.

func fmtMasked(t *table.Table) string {
	if t == nil {
		return "<nil>"
	}
	return t.Format(-1)
}

func sameStats(a, b Stats) bool { return a == b }

func fmtMinimal(ms []MinimalNode) string {
	s := ""
	for _, m := range ms {
		s += fmt.Sprintf("<%s> sup=%d\n%s\n", m.Node.Key(), m.Suppressed, fmtMasked(m.Masked))
	}
	return s
}

// TestParallelMatchesSerial: for every strategy, every fixture
// configuration and several worker counts, the parallel run must be
// node-for-node identical to the Workers=1 run.
func TestParallelMatchesSerial(t *testing.T) {
	tbl := figure3Table(t)
	workerCounts := []int{2, 4, 8}
	for _, p := range []int{1, 2} {
		for ts := 0; ts <= 10; ts += 2 {
			for _, useCond := range []bool{true, false} {
				base := kOnlyConfig(t, ts)
				base.P = p
				base.UseConditions = useCond
				name := fmt.Sprintf("p=%d/TS=%d/cond=%v", p, ts, useCond)

				samS, err := Samarati(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				exS, err := Exhaustive(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				buS, err := BottomUp(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				amS, err := AllMinimal(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				incS, err := Incognito(tbl, base)
				if err != nil {
					t.Fatal(err)
				}

				for _, w := range workerCounts {
					cfg := base
					cfg.Workers = w

					samP, err := Samarati(tbl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if samP.Found != samS.Found || !sameStats(samP.Stats, samS.Stats) ||
						samP.Suppressed != samS.Suppressed ||
						(samP.Found && !samP.Node.Equal(samS.Node)) ||
						fmtMasked(samP.Masked) != fmtMasked(samS.Masked) {
						t.Errorf("%s w=%d: Samarati diverged: %+v vs serial %+v", name, w, samP, samS)
					}

					exP, err := Exhaustive(tbl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStats(exP.Stats, exS.Stats) ||
						fmt.Sprint(exP.Satisfying) != fmt.Sprint(exS.Satisfying) ||
						fmtMinimal(exP.Minimal) != fmtMinimal(exS.Minimal) {
						t.Errorf("%s w=%d: Exhaustive diverged", name, w)
					}

					buP, err := BottomUp(tbl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStats(buP.Stats, buS.Stats) ||
						fmt.Sprint(buP.Satisfying) != fmt.Sprint(buS.Satisfying) ||
						fmtMinimal(buP.Minimal) != fmtMinimal(buS.Minimal) {
						t.Errorf("%s w=%d: BottomUp diverged", name, w)
					}

					amP, err := AllMinimal(tbl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStats(amP.Stats, amS.Stats) ||
						fmt.Sprint(amP.Satisfying) != fmt.Sprint(amS.Satisfying) ||
						fmtMinimal(amP.Minimal) != fmtMinimal(amS.Minimal) {
						t.Errorf("%s w=%d: AllMinimal diverged", name, w)
					}

					incP, err := Incognito(tbl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStats(incP.Stats, incS.Stats) ||
						incP.PrunedBySubsets != incS.PrunedBySubsets ||
						incP.SubsetsEvaluated != incS.SubsetsEvaluated ||
						fmtMinimal(incP.Minimal) != fmtMinimal(incS.Minimal) {
						t.Errorf("%s w=%d: Incognito diverged", name, w)
					}
				}
			}
		}
	}
}

// TestWorkerCountClamp covers the pool-size arithmetic.
func TestWorkerCountClamp(t *testing.T) {
	cases := []struct{ workers, nodes, want int }{
		{0, 10, 1}, {1, 10, 1}, {-3, 10, 1},
		{4, 10, 4}, {16, 3, 3}, {4, 0, 0}, {2, 1, 1},
	}
	for _, c := range cases {
		cfg := Config{Workers: c.workers}
		if got := cfg.workerCount(c.nodes); got != c.want {
			t.Errorf("workerCount(workers=%d, n=%d) = %d, want %d", c.workers, c.nodes, got, c.want)
		}
	}
	if DefaultWorkers() < 1 {
		t.Errorf("DefaultWorkers() = %d, want >= 1", DefaultWorkers())
	}
}
