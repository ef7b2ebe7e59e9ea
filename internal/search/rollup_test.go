package search

import (
	"testing"

	"psk/internal/obs"
)

// TestRollupStoreScansOnce: an exhaustive search over the whole lattice
// must hit the row-scanning fallback exactly once (the lattice bottom);
// every other node's statistics must arrive via roll-up. This pins the
// perf contract, not just the equivalence.
func TestRollupStoreScansOnce(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 4)
	cfg.P = 2
	m, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := searchBounds(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := newEvaluator(tbl, m, nil, cfg, bounds)
	nodes := m.Lattice().AllNodes()
	for _, node := range nodes {
		if o := e.evalNode(node); o.err != nil {
			t.Fatal(o.err)
		}
	}
	if len(e.rollups.entries) != len(nodes) {
		t.Errorf("store holds %d entries, want %d", len(e.rollups.entries), len(nodes))
	}
	if scans := e.rollups.rowScans.Load(); scans != 1 {
		t.Errorf("row-scanning fallback ran %d times, want 1 (lattice bottom only)", scans)
	}
	// Re-evaluating is served entirely from the store.
	for _, node := range nodes {
		if o := e.evalNode(node); o.err != nil {
			t.Fatal(o.err)
		}
	}
	if len(e.rollups.entries) != len(nodes) || e.rollups.rowScans.Load() != 1 {
		t.Error("re-evaluation grew the store or re-scanned rows")
	}
}

// TestRollupSourceDeterministic: a serial search picks the same roll-up
// source for every node on every run, so repeated runs report identical
// cache and level-map counters (the store is a map, so an unordered tie
// between equally high descendants would make them wander).
func TestRollupSourceDeterministic(t *testing.T) {
	src, cfg := adultSample(t, 30000)
	im, err := src.Sample(1000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	var first obs.CacheStats
	for i := 0; i < 12; i++ {
		cfg.Recorder = obs.NewRecorder()
		if _, err := Run(im, cfg, StrategySamarati); err != nil {
			t.Fatal(err)
		}
		got := cfg.Recorder.Snapshot().Cache
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d cache counters %+v, run 0 %+v", i, got, first)
		}
	}
}
