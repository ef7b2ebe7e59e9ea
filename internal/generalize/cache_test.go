package generalize

import (
	"sync"
	"testing"

	"psk/internal/lattice"
	"psk/internal/table"
)

// TestCacheApplyMatchesMasker: for every lattice node, the cached
// column-swap assembly must render byte-identically to Masker.Apply.
func TestCacheApplyMatchesMasker(t *testing.T) {
	tbl := figure3Table(t)
	m := figure3Masker(t)
	c := m.NewCache(tbl)
	for _, node := range m.Lattice().AllNodes() {
		want, err := m.Apply(tbl, node)
		if err != nil {
			t.Fatalf("Apply(%v): %v", node, err)
		}
		got, err := c.Apply(node)
		if err != nil {
			t.Fatalf("Cache.Apply(%v): %v", node, err)
		}
		if got.Format(-1) != want.Format(-1) {
			t.Errorf("node %v:\ncache:\n%s\nmasker:\n%s", node, got.Format(-1), want.Format(-1))
		}
	}
	// The bottom node is served without any copying.
	if got, _ := c.Apply(m.Lattice().Bottom()); got != tbl {
		t.Error("bottom node should return the source table unchanged")
	}
	// Nodes outside the lattice are rejected.
	if _, err := c.Apply(lattice.Node{9, 9}); err == nil {
		t.Error("node outside lattice accepted")
	}
	if _, err := c.ApplyQIs([]string{"Sex"}, lattice.Node{1, 1}); err == nil {
		t.Error("qis/node length mismatch accepted")
	}
}

// TestCacheMaskMatchesMasker: the cached Mask pipeline must agree with
// the uncached one, including suppression counts.
func TestCacheMaskMatchesMasker(t *testing.T) {
	tbl := figure3Table(t)
	m := figure3Masker(t)
	c := m.NewCache(tbl)
	for _, node := range m.Lattice().AllNodes() {
		want, ws, err := m.Mask(tbl, node, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, gs, err := c.Mask(node, 3)
		if err != nil {
			t.Fatal(err)
		}
		if gs != ws || got.Format(-1) != want.Format(-1) {
			t.Errorf("node %v: suppressed %d vs %d, or tables differ", node, gs, ws)
		}
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; run with
// -race. Every goroutine must observe identical column pointers (each
// entry computed exactly once).
func TestCacheConcurrent(t *testing.T) {
	tbl := figure3Table(t)
	m := figure3Masker(t)
	c := m.NewCache(tbl)
	nodes := m.Lattice().AllNodes()
	var wg sync.WaitGroup
	cols := make([]table.Column, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, node := range nodes {
				if _, err := c.Apply(node); err != nil {
					t.Error(err)
					return
				}
			}
			col, err := c.Column("ZipCode", 1)
			if err != nil {
				t.Error(err)
				return
			}
			cols[i] = col
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if cols[i] != cols[0] {
			t.Fatalf("goroutine %d saw a different cached column", i)
		}
	}
}

// TestSuppressWithin: single-pass budget enforcement must agree with
// the sub-k tuple count and Suppress at every node and budget.
func TestSuppressWithin(t *testing.T) {
	tbl := figure3Table(t)
	m := figure3Masker(t)
	for _, node := range m.Lattice().AllNodes() {
		g, err := m.Apply(tbl, node)
		if err != nil {
			t.Fatal(err)
		}
		violating := violatingTuples(t, g, 3)
		for budget := 0; budget <= 10; budget++ {
			out, suppressed, ok, err := m.SuppressWithin(g, 3, budget)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (violating <= budget) || (!ok && suppressed != violating) {
				t.Errorf("node %v budget %d: ok=%v count=%d, violating=%d", node, budget, ok, suppressed, violating)
				continue
			}
			if !ok {
				continue
			}
			want, ws, err := m.Suppress(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			if suppressed != ws || out.Format(-1) != want.Format(-1) {
				t.Errorf("node %v budget %d: suppressed %d vs %d, or tables differ", node, budget, suppressed, ws)
			}
		}
	}
	if _, _, _, err := m.SuppressWithin(tbl, 0, 5); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestLevelMap: for every attribute and ordered level pair, the cached
// code map must translate each row's code at the finer level to its
// code at the coarser level; equal levels are the nil identity map, and
// specializing (coarse -> fine) pairs are rejected as non-functional.
func TestLevelMap(t *testing.T) {
	tbl := figure3Table(t)
	m := figure3Masker(t)
	c := m.NewCache(tbl)
	dims := m.Lattice().Dims()
	for qi, attr := range m.QuasiIdentifiers() {
		maxLevel := dims[qi] - 1
		for from := 0; from <= maxLevel; from++ {
			for to := from; to <= maxLevel; to++ {
				cm, err := c.LevelMap(attr, from, to)
				if err != nil {
					t.Fatalf("LevelMap(%s, %d, %d): %v", attr, from, to, err)
				}
				if from == to {
					if cm != nil {
						t.Errorf("LevelMap(%s, %d, %d) not identity", attr, from, to)
					}
					continue
				}
				fromCol, err := c.levelColumn(attr, from)
				if err != nil {
					t.Fatal(err)
				}
				toCol, err := c.levelColumn(attr, to)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < tbl.NumRows(); r++ {
					got, ok := cm.Map(fromCol.Code(r))
					if !ok || got != toCol.Code(r) {
						t.Errorf("%s %d->%d row %d: Map(%d) = %d,%v want %d",
							attr, from, to, r, fromCol.Code(r), got, ok, toCol.Code(r))
					}
				}
			}
		}
	}
	// Specializing direction: "Person" covers both M and F, so the
	// relation is not a function.
	if _, err := c.LevelMap("Sex", 1, 0); err == nil {
		t.Error("specializing level map accepted")
	}
	// Unknown attribute.
	if _, err := c.LevelMap("Age", 0, 1); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestLevelMapConcurrent hammers LevelMap from many goroutines; run
// with -race. Every goroutine must observe the identical memoized map.
func TestLevelMapConcurrent(t *testing.T) {
	tbl := figure3Table(t)
	m := figure3Masker(t)
	c := m.NewCache(tbl)
	var wg sync.WaitGroup
	maps := make([]*table.CodeMap, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cm, err := c.LevelMap("ZipCode", 0, 2)
			if err != nil {
				t.Error(err)
				return
			}
			maps[i] = cm
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if maps[i] != maps[0] {
			t.Fatalf("goroutine %d saw a different cached map", i)
		}
	}
}
