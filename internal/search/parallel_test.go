package search

import (
	"fmt"
	"testing"

	"psk/internal/table"
)

// The parallel engine promises results byte-identical to the serial
// scan at every worker count: same found nodes, same released masked
// microdata, same stats totals. These tests exercise that promise across every
// strategy and worker counts beyond GOMAXPROCS; run them with -race to
// also exercise the synchronization.

func fmtMasked(t *table.Table) string {
	if t == nil {
		return "<nil>"
	}
	return t.Format(-1)
}

func fmtMinimal(ms []MinimalNode) string {
	s := ""
	for _, m := range ms {
		s += fmt.Sprintf("<%s> sup=%d\n", m.Node.Key(), m.Suppressed)
	}
	return s
}

// fmtResult renders what a search pins — stop reason, stats, the
// satisfying set, every minimal node with its suppressed count, and the
// released masked bytes — for byte-identical comparison. Found, Node and
// Suppressed are Minimal[0], so they are covered too.
func fmtResult(r Result) string {
	return fmt.Sprintf("stop=%v %+v\nsatisfying %v\n", r.StopReason, r.Stats, r.Satisfying) +
		fmtMinimal(r.Minimal) + "released:\n" + fmtMasked(r.Masked) + "\n"
}

// TestParallelMatchesSerial: for every strategy, every fixture
// configuration and several worker counts, the parallel run must be
// node-for-node identical to the Workers=1 run.
func TestParallelMatchesSerial(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for ts := 0; ts <= 10; ts += 2 {
			for _, useCond := range []bool{true, false} {
				base := kOnlyConfig(t, ts)
				base.P = p
				base.UseConditions = useCond
				for s := range numStrategies {
					serial, err := Run(tbl, base, s)
					if err != nil {
						t.Fatal(err)
					}
					for _, w := range []int{2, 4, 8} {
						cfg := base
						cfg.Workers = w
						got, err := Run(tbl, cfg, s)
						if err != nil {
							t.Fatal(err)
						}
						if fmtResult(got) != fmtResult(serial) {
							t.Errorf("p=%d/TS=%d/cond=%v w=%d: %s diverged:\n%s\nserial:\n%s",
								p, ts, useCond, w, s, fmtResult(got), fmtResult(serial))
						}
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
