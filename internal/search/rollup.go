package search

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// rollupStore keeps the pre-suppression group statistics of every
// lattice node one search has evaluated, so later nodes derive their
// statistics by merging an already-evaluated descendant's groups
// (table.GroupStats.Rollup) instead of re-scanning rows, and each
// node's judgement, so no walk of the search judges a node twice.
// Storing the statistics *before* suppression is what makes the roll-up
// exact at every node: generalization is a function of the source rows
// alone, so a node's pre-suppression groups are always a pure merge of
// any descendant's pre-suppression groups, regardless of which tuples
// suppression would remove at either node (suppression then drops whole
// sub-k groups, which SuppressBelow replays on the statistics).
//
// The store is safe for concurrent use by the evaluator's worker pool:
// entries are created under the mutex, computed once by their creator,
// and published by closing done. Waiting on another node's entry can
// never deadlock — a creator only ever waits on the lattice bottom's
// entry, whose computation waits on nothing.
type rollupStore struct {
	mu      sync.Mutex
	entries map[string]*rollupEntry
	// rowScans counts how many node evaluations fell back to scanning
	// rows; for a nested hierarchy set it stays at 1 (the lattice
	// bottom), which TestRollupStoreScansOnce pins.
	rowScans atomic.Int64
}

type rollupEntry struct {
	node lattice.Node
	done chan struct{}
	// completed is set under the store mutex when stats/err are final;
	// nearestDescendant only considers completed entries, so it never
	// blocks on an in-flight computation.
	completed bool
	stats     *table.GroupStats
	err       error
	// verdict is the node's judgement, set with judged under the store
	// mutex once a reduction consumed the node's evaluation; an entry
	// that only serves as a roll-up source (the lattice bottom until a
	// walk judges it, a seeded entry) has none.
	judged  bool
	verdict judgement
}

func newRollupStore() *rollupStore {
	return &rollupStore{entries: make(map[string]*rollupEntry)}
}

// acquire returns the entry for the node, creating it if absent. The
// caller that observes created == true owns the computation and must
// call finish exactly once; everyone else waits on done.
func (s *rollupStore) acquire(node lattice.Node) (e *rollupEntry, created bool) {
	key := node.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		return e, false
	}
	e = &rollupEntry{node: node.Clone(), done: make(chan struct{})}
	s.entries[key] = e
	return e, true
}

// finish publishes the entry's result.
func (s *rollupStore) finish(e *rollupEntry, stats *table.GroupStats, err error) {
	s.mu.Lock()
	e.stats, e.err = stats, err
	e.completed = true
	s.mu.Unlock()
	close(e.done)
}

// seed pre-populates the store with an externally derived node's
// statistics (the incremental repair seeds the lattice bottom with its
// maintained base statistics, so it never scans rows). A node already
// present is left untouched.
func (s *rollupStore) seed(node lattice.Node, stats *table.GroupStats) {
	e, created := s.acquire(node)
	if created {
		s.finish(e, stats, nil)
	}
}

// judge records the node's judgement in its entry, which evaluating
// the node created.
func (s *rollupStore) judge(node lattice.Node, j judgement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[node.Key()]; ok {
		e.judged, e.verdict = true, j
	}
}

// judged returns the node's judgement, if a reduction recorded one.
func (s *rollupStore) judged(node lattice.Node) (judgement, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[node.Key()]; ok && e.judged {
		return e.verdict, true
	}
	return judgement{}, false
}

// lookup returns the statistics of a node whose computation completed
// without error, nil otherwise. It is not a node evaluation, so no
// roll-up counter moves.
func (s *rollupStore) lookup(node lattice.Node) *table.GroupStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[node.Key()]; ok && e.completed && e.err == nil {
		return e.stats
	}
	return nil
}

// nearestDescendant returns the completed entry whose node the given
// node generalizes, preferring the greatest lattice height, then the
// fewest groups (both make the cheapest merge), then the
// lexicographically smallest node, so the choice never depends on map
// order; nil when no strict descendant has completed without error.
func (s *rollupStore) nearestDescendant(node lattice.Node) *rollupEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *rollupEntry
	for _, e := range s.entries {
		if !e.completed || e.err != nil || !node.StrictGeneralizationOf(e.node) {
			continue
		}
		if best == nil || e.closerThan(best) {
			best = e
		}
	}
	return best
}

// closerThan orders roll-up sources for nearestDescendant.
func (e *rollupEntry) closerThan(o *rollupEntry) bool {
	if h, hOther := e.node.Height(), o.node.Height(); h != hOther {
		return h > hOther
	}
	if g, gOther := e.stats.NumGroups(), o.stats.NumGroups(); g != gOther {
		return g < gOther
	}
	return slices.Compare(e.node, o.node) < 0
}

// buildStats computes the node's pre-suppression statistics from rows:
// the sharded, parallel group-by over the node's generalized table.
func (e *evaluator) buildStats(node lattice.Node) (*table.GroupStats, error) {
	g, err := e.cache.ApplyQIs(e.qis, node)
	if err != nil {
		return nil, err
	}
	w := e.cfg.Workers
	if w < 1 {
		w = 1
	}
	return g.GroupStats(e.qis, e.conf, w)
}

// statsFor returns the node's pre-suppression group statistics,
// rolling up from the nearest already-evaluated descendant when one
// exists. The first node with no completed descendant seeds the store
// with the lattice bottom's statistics (the one base-level row scan of
// the search); every other node is then an ancestor of something in
// the store, so it merges groups instead of scanning rows.
func (e *evaluator) statsFor(node lattice.Node) (*table.GroupStats, error) {
	entry, created := e.rollups.acquire(node)
	if !created {
		e.rec.RollupReuse()
		<-entry.done
		return entry.stats, entry.err
	}
	// The creator owns the computation and must publish the entry even
	// if the computation panics — otherwise every worker waiting on
	// entry.done would block forever and the pool could never drain. The
	// panic is re-raised after publishing; evalSafe turns it into this
	// node's error outcome, while the waiters see the recorded error.
	finished := false
	defer func() {
		if !finished {
			err := fmt.Errorf("search: rollup stats for node %v: computation panicked", node)
			e.rollups.finish(entry, nil, err)
		}
	}()
	stats, err := e.computeStats(node)
	finished = true
	e.rollups.finish(entry, stats, err)
	return stats, err
}

func (e *evaluator) computeStats(node lattice.Node) (*table.GroupStats, error) {
	src := e.rollups.nearestDescendant(node)
	if src == nil && node.Height() > 0 {
		// Seed the bottom so this and all later nodes can roll up.
		bottom := make(lattice.Node, len(node))
		if bs, err := e.statsFor(bottom); err == nil && bs != nil {
			src = &rollupEntry{node: bottom, stats: bs}
		}
	}
	if src != nil {
		rollStart := e.rec.Start()
		maps, err := e.levelMaps(src.node, node)
		var rolled *table.GroupStats
		if err == nil {
			rolled, err = src.stats.Rollup(maps)
		}
		e.rec.PhaseEnd(obs.PhaseRollup, rollStart)
		if err == nil {
			e.rec.RollupMerge()
			return rolled, nil
		}
		// A roll-up can only fail when a hierarchy is not a nested
		// refinement (level maps are then not functional). A row scan of
		// the node's generalized table still defines its statistics, so
		// fall back to one below rather than failing the search.
	}
	e.rollups.rowScans.Add(1)
	e.rec.RollupRowScan()
	scanStart := e.rec.Start()
	stats, err := e.buildStats(node)
	e.rec.PhaseEnd(obs.PhaseGroupBy, scanStart)
	return stats, err
}

// levelMaps assembles the per-QI code translations from one node's
// levels to another's, served from the search's generalization cache.
func (e *evaluator) levelMaps(from, to lattice.Node) ([]*table.CodeMap, error) {
	if len(from) != len(to) || len(from) != len(e.qis) {
		return nil, fmt.Errorf("search: level maps between nodes %v and %v over %d attributes", from, to, len(e.qis))
	}
	maps := make([]*table.CodeMap, len(e.qis))
	for i, attr := range e.qis {
		cm, err := e.cache.LevelMap(attr, from[i], to[i])
		if err != nil {
			return nil, err
		}
		maps[i] = cm
	}
	return maps, nil
}
