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
// (table.Remap) and, when a node is materialized, the generalized column
// translated from it. A lattice search derives every level map from two
// walks in O(distinct values) without reading a row, and builds columns
// only for the one node it releases, after its walk. A node's masked
// table is assembled by swapping cached columns into the source table
// (O(#QIs) pointer work) rather than re-walking hierarchies per row.
//
// A Cache is safe for concurrent use: each walk, column and level map is
// computed exactly once behind a per-entry sync.Once, and entries are
// immutable afterwards, which is what lets the parallel search engine
// share one Cache across its whole worker pool without further locking.
type Cache struct {
	src *table.Table
	m   *Masker

	mu      sync.Mutex
	walks   map[colKey]*walkEntry
	entries map[colKey]*colEntry
	maps    map[mapKey]*mapEntry

	// rec is the telemetry sink, if any. An atomic pointer because
	// Incognito shares one cache across sub-searches that may attach a
	// recorder while workers from an earlier phase still read it.
	rec atomic.Pointer[obs.Recorder]

	// bytes is the estimated memory of all walks (Remap.MemBytes) and
	// columns (table.MemBytes) built so far, maintained unconditionally —
	// unlike the telemetry counters — because Budget.MaxCacheBytes
	// enforcement reads it between node evaluations whether or not a
	// recorder is attached.
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

type colEntry struct {
	once  sync.Once
	col   table.Column
	bytes int64
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

// NewCache binds a cache to one source table. The cache serves every QI
// subset of the masker (Incognito's sub-searches share it), because
// entries are keyed by attribute name, not by QI position.
func (m *Masker) NewCache(src *table.Table) *Cache {
	return &Cache{
		src: src, m: m,
		walks:   make(map[colKey]*walkEntry),
		entries: make(map[colKey]*colEntry),
		maps:    make(map[mapKey]*mapEntry),
	}
}

// Source returns the table the cache generalizes.
func (c *Cache) Source() *table.Table { return c.src }

// Observe attaches a telemetry recorder; column hits and misses and the
// bytes of built walks and columns are reported to it from then on. A
// nil recorder detaches.
func (c *Cache) Observe(rec *obs.Recorder) {
	c.rec.Store(rec)
}

// recorder returns the attached recorder (nil when telemetry is off;
// obs methods are nil-safe so callers don't guard).
func (c *Cache) recorder() *obs.Recorder { return c.rec.Load() }

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
		c.recorder().CacheWalk(bytes)
	})
	return e.remap, e.err
}

// Column returns the source column for attr generalized to the given
// hierarchy level, translating the rows through the level's walk and
// memoizing the column on first use.
func (c *Cache) Column(attr string, level int) (table.Column, error) {
	c.mu.Lock()
	e, ok := c.entries[colKey{attr, level}]
	if !ok {
		e = &colEntry{}
		c.entries[colKey{attr, level}] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		r, err := c.walk(attr, level)
		if err != nil {
			e.err = err
			return
		}
		// Per row, two array lookups: no string is built, and the
		// column is bit-packed from the start.
		if e.col, e.err = r.Column(); e.err != nil {
			e.err = fmt.Errorf("generalize: cache %s level %d: %w", attr, level, e.err)
			return
		}
		e.bytes = table.MemBytes(e.col)
		c.bytes.Add(e.bytes)
	})
	if rec := c.recorder(); rec != nil {
		// The goroutine that inserted the entry reports the miss (and
		// the built column's size); every later access is a hit.
		if ok {
			rec.CacheColumn(true, 0)
		} else {
			rec.CacheColumn(false, e.bytes)
		}
	}
	return e.col, e.err
}

// Bytes returns the estimated memory currently held by walks and built
// columns, the quantity search budgets cap with Budget.MaxCacheBytes.
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
	c.recorder().CacheLevelMap(ok)
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
// the lattice node, equivalent to Masker.Apply on the cached source
// table but served from memoized columns.
func (c *Cache) Apply(node lattice.Node) (*table.Table, error) {
	if !c.m.lat.Contains(node) {
		return nil, fmt.Errorf("generalize: node %v outside lattice with dims %v", node, c.m.lat.Dims())
	}
	return c.ApplyQIs(c.m.qis, node)
}

// ApplyQIs recodes the given quasi-identifier subset (node[i] is the
// level for qis[i]); Incognito's subset lattices use this with one
// shared cache.
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
