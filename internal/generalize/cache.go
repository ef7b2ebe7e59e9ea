package generalize

import (
	"fmt"
	"sync"
	"sync/atomic"

	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// Cache memoizes, for each (QI attribute, hierarchy level) pair of one
// source table, the hierarchy walk over the attribute's distinct values
// (table.Remap), and the level maps read off two walks. A lattice
// search derives every level map in O(distinct values) without reading
// a row; Column and ApplyQIs translate rows through a walk, which a
// search does once, for the node it releases.
//
// A Cache is per-search state: every search builds its own, and
// Incognito's subset passes share their search's. It is safe for
// concurrent use: each walk and level map is computed exactly once
// behind a per-entry sync.Once, and entries are immutable afterwards,
// which is what lets the parallel search engine share one Cache across
// its whole worker pool without further locking.
type Cache struct {
	src *table.Table
	m   *Masker
	// rec is the telemetry sink the cache was built with; nil disables
	// collection (obs methods are nil-safe).
	rec *obs.Recorder

	mu    sync.Mutex
	walks map[colKey]*walkEntry
	maps  map[mapKey]*mapEntry

	// bytes is the estimated memory of all walks built so far
	// (Remap.MemBytes), maintained whether or not a recorder is attached
	// because Budget.MaxCacheBytes enforcement reads it between node
	// evaluations.
	bytes atomic.Int64
}

type colKey struct {
	attr  string
	level int
}

type walkEntry struct {
	once  sync.Once
	remap *table.Remap
	err   error
}

type mapKey struct {
	attr     string
	from, to int
}

type mapEntry struct {
	once sync.Once
	cm   *table.CodeMap
	err  error
}

// NewCache binds a cache to one source table and reports the walks it
// builds and its level-map accesses to rec (nil for none). The cache
// serves every QI subset of the masker (Incognito's sub-searches share
// it), because entries are keyed by attribute name, not by QI position.
func (m *Masker) NewCache(src *table.Table, rec *obs.Recorder) *Cache {
	return &Cache{
		src: src, m: m, rec: rec,
		walks: make(map[colKey]*walkEntry),
		maps:  make(map[mapKey]*mapEntry),
	}
}

// walk returns attr's hierarchy walk to the given level (level >= 1),
// computing and memoizing it on first use: the generalized label and
// code of every distinct source value. Columns and level maps are both
// read off it, so they assign the same codes.
func (c *Cache) walk(attr string, level int) (*table.Remap, error) {
	c.mu.Lock()
	e, ok := c.walks[colKey{attr, level}]
	if !ok {
		e = &walkEntry{}
		c.walks[colKey{attr, level}] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		h, err := c.m.hiers.Get(attr)
		if err != nil {
			e.err = fmt.Errorf("generalize: %w", err)
			return
		}
		e.remap, e.err = c.src.Remap(attr, func(v table.Value) (string, error) {
			return h.Generalize(v.Str(), level)
		})
		if e.err != nil {
			e.err = fmt.Errorf("generalize: cache %s level %d: %w", attr, level, e.err)
			return
		}
		bytes := e.remap.MemBytes()
		c.bytes.Add(bytes)
		c.rec.CacheWalk(bytes)
	})
	return e.remap, e.err
}

// Column returns the source column for attr generalized to the given
// hierarchy level (level >= 1), translating the rows through the
// level's memoized walk: per row, two array lookups, no string built,
// and the column bit-packed from the start. The column is not kept.
func (c *Cache) Column(attr string, level int) (table.Column, error) {
	r, err := c.walk(attr, level)
	if err != nil {
		return nil, err
	}
	col, err := r.Column()
	if err != nil {
		return nil, fmt.Errorf("generalize: cache %s level %d: %w", attr, level, err)
	}
	return col, nil
}

// Bytes returns the estimated memory held by the hierarchy walks built
// so far, the quantity search budgets cap with Budget.MaxCacheBytes.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// levelWalk returns attr's walk to level, nil at level 0: ApplyQIs
// leaves level-0 attributes untouched, so level 0's codes are the
// source column's own.
func (c *Cache) levelWalk(attr string, level int) (*table.Remap, error) {
	if level == 0 {
		return nil, nil
	}
	return c.walk(attr, level)
}

// LevelMap returns the code translation for attr from one hierarchy
// level to another, computing and memoizing it on first use. A nil map
// (with nil error) means the levels are equal and the translation is
// the identity.
//
// The map is read off the two levels' walks in O(distinct values); no
// row is read and no column is built. Full-domain recoding guarantees
// the translation exists whenever `to` generalizes `from`. A value that
// fails to generalize is left out of the map (see table.CodeMapBetween),
// so rolling up a row that carries it fails as its column would. The map
// fails when two values sharing a code at `from` part at `to`, as in a
// specializing pair or a hierarchy that is not nested; the roll-up
// layer then groups that node's rows instead.
//
// The roll-up layer uses these maps to move QI-group keys between
// lattice nodes without rescanning rows.
func (c *Cache) LevelMap(attr string, from, to int) (*table.CodeMap, error) {
	if from == to {
		return nil, nil
	}
	c.mu.Lock()
	e, ok := c.maps[mapKey{attr, from, to}]
	if !ok {
		e = &mapEntry{}
		c.maps[mapKey{attr, from, to}] = e
	}
	c.mu.Unlock()
	c.rec.CacheLevelMap(ok)
	e.once.Do(func() {
		e.cm, e.err = c.levelMap(attr, from, to)
		if e.err != nil {
			e.err = fmt.Errorf("generalize: level map %s %d->%d: %w", attr, from, to, e.err)
		}
	})
	return e.cm, e.err
}

func (c *Cache) levelMap(attr string, from, to int) (*table.CodeMap, error) {
	fromWalk, err := c.levelWalk(attr, from)
	if err != nil {
		return nil, err
	}
	toWalk, err := c.levelWalk(attr, to)
	if err != nil {
		return nil, err
	}
	cm, ok := table.CodeMapBetween(fromWalk, toWalk)
	if !ok {
		return nil, fmt.Errorf("not functional: values sharing a level-%d code part at level %d", from, to)
	}
	return cm, nil
}

// Apply recodes the masker's quasi-identifier columns to the levels of
// the lattice node, equivalent to Masker.Apply on the cache's source
// table but translated through memoized walks: one hierarchy call per
// distinct value instead of one per row.
func (c *Cache) Apply(node lattice.Node) (*table.Table, error) {
	if !c.m.lat.Contains(node) {
		return nil, fmt.Errorf("generalize: node %v outside lattice with dims %v", node, c.m.lat.Dims())
	}
	return c.ApplyQIs(c.m.qis, node)
}

// ApplyQIs recodes the given quasi-identifier subset (node[i] is the
// level for qis[i]), swapping each generalized column into the source
// table; level-0 attributes keep the source column.
func (c *Cache) ApplyQIs(qis []string, node lattice.Node) (*table.Table, error) {
	if len(qis) != len(node) {
		return nil, fmt.Errorf("generalize: node %v has %d levels for %d attributes", node, len(node), len(qis))
	}
	out := c.src
	for i, attr := range qis {
		if node[i] == 0 {
			continue
		}
		col, err := c.Column(attr, node[i])
		if err != nil {
			return nil, err
		}
		out, err = out.WithColumn(attr, col)
		if err != nil {
			return nil, fmt.Errorf("generalize: apply %s level %d: %w", attr, node[i], err)
		}
	}
	return out, nil
}
