package search

import (
	"fmt"
	"slices"
	"sync"

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
// The store holds complete entries only: put stores a node once its
// statistics are computed, and the mutex guards the map alone. The
// engine's batches make that enough:
//   - a batch never holds a node twice, and batches run one after
//     another, so no two workers ever compute the same node;
//   - the bottom is stored before any walk (Run and the incremental
//     repair both compute it first), so every other node has a stored
//     descendant to roll up from.
//
// So a roll-up reads only complete entries, and only the goroutine that
// reduces the batches touches a judgement, between batches.
type rollupStore struct {
	mu      sync.Mutex
	entries map[string]*rollupEntry
}

// rollupEntry is one stored node: its pre-suppression statistics and,
// once a reduction consumed the node's evaluation, its judgement. An
// entry that only serves as a roll-up source (the lattice bottom until
// a walk judges it, speculative work past a hit) has none.
type rollupEntry struct {
	node    lattice.Node
	stats   *table.GroupStats
	judged  bool
	verdict judgement
}

func newRollupStore() *rollupStore {
	return &rollupStore{entries: make(map[string]*rollupEntry)}
}

// get returns the node's entry, or nil when the node is not stored. It
// is not a node evaluation, so no roll-up counter moves.
func (s *rollupStore) get(node lattice.Node) *rollupEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[node.Key()]
}

// put stores the node's complete statistics and returns its entry.
func (s *rollupStore) put(node lattice.Node, stats *table.GroupStats) *rollupEntry {
	key, e := node.Key(), &rollupEntry{node: node.Clone(), stats: stats}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = e
	return e
}

// nearestDescendant returns the stored entry whose node the given node
// strictly generalizes and whose merge costs least: the fewest groups,
// then the greatest lattice height, then the lexicographically smallest
// node, so the choice never depends on map order; nil when no strict
// descendant is stored.
func (s *rollupStore) nearestDescendant(node lattice.Node) *rollupEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *rollupEntry
	for _, e := range s.entries {
		if !node.StrictGeneralizationOf(e.node) {
			continue
		}
		if best == nil || e.closerThan(best) {
			best = e
		}
	}
	return best
}

// closerThan orders roll-up sources for nearestDescendant. A merge
// costs what its source holds, so fewer groups come first. Generalizing
// only merges groups, so when all of a node's immediate predecessors
// are stored the fewest-groups source is one of them, and ties go to
// the higher node.
func (e *rollupEntry) closerThan(o *rollupEntry) bool {
	if g, gOther := e.stats.NumGroups(), o.stats.NumGroups(); g != gOther {
		return g < gOther
	}
	if h, hOther := e.node.Height(), o.node.Height(); h != hOther {
		return h > hOther
	}
	return slices.Compare(e.node, o.node) < 0
}

// statsFor computes the node's pre-suppression group statistics and
// stores them. Every node but the lattice bottom has a stored
// descendant once Run stored the bottom, so it merges that
// descendant's groups instead of scanning rows; the bottom's row scan,
// the sharded, parallel group-by over its table, is the one base-level
// scan of the search.
func (e *evaluator) statsFor(node lattice.Node) (*rollupEntry, error) {
	if src := e.rollups.nearestDescendant(node); src != nil {
		rollStart := e.rec.Start()
		maps, err := e.levelMaps(src.node, node)
		var rolled *table.GroupStats
		if err == nil {
			rolled, err = src.stats.Rollup(maps)
		}
		e.rec.PhaseEnd(obs.PhaseRollup, rollStart)
		if err == nil {
			e.rec.RollupMerge()
			return e.rollups.put(node, rolled), nil
		}
		// A roll-up can only fail when a hierarchy is not a nested
		// refinement (level maps are then not functional). A row scan of
		// the node's generalized table still defines its statistics, so
		// fall back to one below rather than failing the search.
	}
	e.rec.RollupRowScan()
	scanStart := e.rec.Start()
	g, err := e.cache.ApplyQIs(e.qis, node)
	var stats *table.GroupStats
	if err == nil {
		stats, err = g.GroupStats(e.qis, e.conf, max(e.cfg.Workers, 1))
	}
	e.rec.PhaseEnd(obs.PhaseGroupBy, scanStart)
	if err != nil {
		return nil, err
	}
	return e.rollups.put(node, stats), nil
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
