package search

import (
	"fmt"

	"psk/internal/core"
	"psk/internal/generalize"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// This file is the streaming publisher: an Incremental session keeps a
// published generalization valid across append/retire row batches at a
// cost proportional to the delta, not the table. Three layers stack:
//
//   - table.Ledger + table.StatsDelta maintain the base (bottom-node)
//     group statistics under row churn, and a second StatsDelta
//     maintains the published node's statistics through a per-session
//     code translation (pubMap), so each batch costs O(rows in batch).
//     Beside them the session keeps each confidential attribute's
//     whole-table histogram, which the Condition 1–2 bounds read.
//   - Republish re-verdicts only the groups the batch touched
//     (core.RecheckGroups), so an unchanged verdict costs O(changed
//     groups), never O(rows), and reads its bounds off the maintained
//     histograms, never the base statistics.
//   - When the incumbent node stops satisfying, repair climbs the
//     lattice from it — evaluating only its ancestors, height by
//     height, through the ordinary engine seeded with the maintained
//     base statistics — and only falls back to a cold batch search when
//     no ancestor satisfies (the paper's monotonicity premise makes
//     that fallback rare: generalizing more re-satisfies k-anonymity
//     and p-sensitivity unless the dataset itself became infeasible).
//
// Equivalence bar (DESIGN.md §14): every verdict the session returns is
// identical to evaluating the published node on a fresh scan of the
// live rows, and Materialize is byte-identical to the batch
// generalize+suppress pipeline on the live snapshot. A repaired node is
// a genuinely satisfying ancestor of the incumbent but need not be the
// globally height-minimal node a cold Samarati would return; callers
// that require global minimality republish cold (Strategy fallback).

// pubMap is one QI attribute's translation from base (source column)
// codes to the session-private code space of the published node. Pub
// codes are assigned by interning the generalized label of each base
// code, so two base codes map to the same pub code exactly when the
// hierarchy sends their values to the same level-L value — the same
// partition the engine's level maps induce, just under session-local
// names (verdicts depend on group identity, never on code values).
// Level 0 is the identity: base codes are their own pub codes.
type pubMap struct {
	level  int
	byBase map[int]int
	labels map[string]int
}

// Incremental is a streaming publish session over one table. Build it
// with OpenIncremental, feed it row batches with Apply, and call
// Republish after each batch for a verdict on the current live rows;
// Materialize produces the masked table for the published node on
// demand. A session is not safe for concurrent use.
type Incremental struct {
	cfg      Config
	fallback Strategy
	m        *generalize.Masker
	led      *table.Ledger
	conf     []string
	qiCols   []table.Column
	confCols []table.Column
	rec      *obs.Recorder

	// qiIdx, qiHier and qiDims validate appended rows before anything
	// mutates: the streaming API accepts untrusted deltas, and a QI
	// value the hierarchy cannot generalize at every lattice level would
	// otherwise surface — and poison the session — only at the next
	// republish.
	qiIdx  []int
	qiHier []hierarchy.Hierarchy
	qiDims []int

	// base maintains the bottom-node statistics (the statistics a fresh
	// GroupStats scan of the live rows would produce, up to group order,
	// representatives and zero-size tombstones — none of which verdicts
	// read). It seeds the repair engine's roll-up store, so repair never
	// rescans rows either.
	base *table.StatsDelta

	// totals holds each confidential attribute's histogram over the live
	// rows, what Conditions 1–2 read. Every node's statistics sum to the
	// same totals, so one copy moves with each row the base absorbs.
	totals []table.CodeHist

	// keyBuf, confBuf and pubBuf hold the codes of the row Apply is
	// absorbing: base QI codes, confidential codes and published-node QI
	// codes. StatsDelta copies the key codes it keeps.
	keyBuf, confBuf, pubBuf []int

	// pub is the currently published node; nil before the first
	// publication and after a republish that found nothing. pubStats
	// maintains the published node's statistics and its changed-group
	// set; pubMaps is the base-to-published code translation that keeps
	// it maintainable under appends that introduce new values.
	pub      lattice.Node
	pubStats *table.StatsDelta
	pubMaps  []*pubMap

	// err poisons the session: a failure between the sub-steps of one
	// row (ledger applied, statistics not) leaves the layers
	// inconsistent, after which no further result can be trusted.
	err error
}

// OpenIncremental starts a streaming session: the table is deep-copied
// into a ledger, its base statistics are scanned once and their
// confidential totals summed, and every later batch is absorbed in
// O(batch) time. The fallback strategy serves the
// initial publication and any republish the repair ascent cannot
// settle. Repair derives every ancestor's statistics from the
// maintained base statistics by roll-up, so the ledger — retired rows
// included — is never rescanned.
func OpenIncremental(im *table.Table, cfg Config, fallback Strategy) (*Incremental, error) {
	m, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if fallback >= numStrategies {
		return nil, fmt.Errorf("search: unknown fallback strategy %d", uint8(fallback))
	}
	s := &Incremental{
		cfg:      cfg,
		fallback: fallback,
		m:        m,
		led:      table.NewLedger(im),
		conf:     cfg.effectiveConf(),
		rec:      cfg.Recorder,
	}
	tab := s.led.Table()
	s.qiCols = make([]table.Column, len(cfg.QIs))
	s.qiIdx = make([]int, len(cfg.QIs))
	s.qiHier = make([]hierarchy.Hierarchy, len(cfg.QIs))
	s.qiDims = m.Lattice().Dims()
	for i, attr := range cfg.QIs {
		if s.qiCols[i], err = tab.Column(attr); err != nil {
			return nil, err
		}
		s.qiIdx[i] = tab.Schema().Index(attr)
		if s.qiHier[i], err = cfg.Hierarchies.Get(attr); err != nil {
			return nil, err
		}
	}
	s.confCols = make([]table.Column, len(s.conf))
	for i, attr := range s.conf {
		if s.confCols[i], err = tab.Column(attr); err != nil {
			return nil, err
		}
	}
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	bs, err := tab.GroupStats(cfg.QIs, s.conf, w)
	if err != nil {
		return nil, err
	}
	s.totals = bs.Totals()
	if s.base, err = table.NewStatsDelta(bs); err != nil {
		return nil, err
	}
	s.keyBuf = make([]int, len(cfg.QIs))
	s.confBuf = make([]int, len(s.conf))
	s.pubBuf = make([]int, len(cfg.QIs))
	return s, nil
}

// Schema returns the session's row schema (appended cells follow it).
func (s *Incremental) Schema() table.Schema { return s.led.Table().Schema() }

// NumLive reports the number of live rows.
func (s *Incremental) NumLive() int { return s.led.NumLive() }

// NumRows reports the total number of row ids ever stored (appends get
// ids NumRows, NumRows+1, ... in order).
func (s *Incremental) NumRows() int { return s.led.NumRows() }

// Published returns a copy of the currently published node, or nil when
// nothing is published.
func (s *Incremental) Published() lattice.Node {
	if s.pub == nil {
		return nil
	}
	return s.pub.Clone()
}

// Apply absorbs one delta batch: retires first (ids must name live rows
// that existed before this batch), then appends (textual cells in
// schema order; each appended row's id is its position in NumRows
// order). The ledger, both maintained statistics and the confidential
// totals move together; on error the batch stops at the failing row —
// rows before it are fully absorbed, the failing row not at all — and
// an error that can leave the layers disagreeing poisons the session
// permanently.
func (s *Incremental) Apply(appends [][]string, retires []int) error {
	if s.err != nil {
		return s.err
	}
	keyCodes, confCodes := s.keyBuf, s.confBuf
	for _, id := range retires {
		if err := s.led.Retire(id); err != nil {
			return err
		}
		// Retired rows stay addressable, so codes can be read after the
		// flag flips; a failure past this point poisons the session.
		s.rowCodes(id, keyCodes, confCodes)
		if _, err := s.base.Retire(keyCodes, confCodes); err != nil {
			return s.poison(err)
		}
		for a, c := range confCodes {
			h, err := s.totals[a].Sub(c)
			if err != nil {
				return s.poison(fmt.Errorf("search: confidential totals: %w", err))
			}
			s.totals[a] = h
		}
		if s.pubStats != nil {
			pubCodes, err := s.translateKnown(keyCodes)
			if err != nil {
				return s.poison(err)
			}
			if _, err := s.pubStats.Retire(pubCodes, confCodes); err != nil {
				return s.poison(err)
			}
		}
	}
	for _, cells := range appends {
		if err := s.validateCells(cells); err != nil {
			return err
		}
		id, err := s.led.AppendText(cells)
		if err != nil {
			return err
		}
		s.rowCodes(id, keyCodes, confCodes)
		if _, err := s.base.Append(keyCodes, confCodes, id); err != nil {
			return s.poison(err)
		}
		for a, c := range confCodes {
			s.totals[a] = s.totals[a].Add(c)
		}
		if s.pubStats != nil {
			pubCodes, err := s.translateNew(keyCodes, id)
			if err != nil {
				return s.poison(err)
			}
			if _, err := s.pubStats.Append(pubCodes, confCodes, id); err != nil {
				return s.poison(err)
			}
		}
	}
	return nil
}

// validateCells rejects an appended row whose QI cells the hierarchies
// cannot generalize at some lattice level, before anything mutates.
// Without this gate a bad value would be accepted here and fail only
// when a later republish generalizes it — mid-publish, poisoning the
// session. Row width is left to the ledger (its error is pre-mutation
// too).
func (s *Incremental) validateCells(cells []string) error {
	if len(cells) != s.Schema().Len() {
		return nil
	}
	for i, h := range s.qiHier {
		cell := cells[s.qiIdx[i]]
		for lvl := 1; lvl <= s.qiDims[i]; lvl++ {
			if _, err := h.Generalize(cell, lvl); err != nil {
				return fmt.Errorf("search: append QI %s: %w", s.cfg.QIs[i], err)
			}
		}
	}
	return nil
}

// rowCodes reads one row's QI and confidential codes from the cached
// column pointers (appends mutate columns in place, so the pointers
// stay valid for the session's lifetime).
func (s *Incremental) rowCodes(id int, keyCodes, confCodes []int) {
	for i, c := range s.qiCols {
		keyCodes[i] = c.Code(id)
	}
	for i, c := range s.confCols {
		confCodes[i] = c.Code(id)
	}
}

func (s *Incremental) poison(err error) error {
	s.err = fmt.Errorf("search: incremental session poisoned: %w", err)
	return s.err
}

// translateKnown maps base QI codes to published-node codes, in pubBuf,
// for a row the statistics have already absorbed; every code is
// necessarily in the translation (adoption seeds it from all groups ever
// seen, and appends extend it), so a miss is an internal error.
func (s *Incremental) translateKnown(keyCodes []int) ([]int, error) {
	out := s.pubBuf
	for i, c := range keyCodes {
		pm := s.pubMaps[i]
		if pm.level == 0 {
			out[i] = c
			continue
		}
		pub, ok := pm.byBase[c]
		if !ok {
			return nil, fmt.Errorf("search: QI %s base code %d missing from the published-node translation", s.cfg.QIs[i], c)
		}
		out[i] = pub
	}
	return out, nil
}

// translateNew maps base QI codes to published-node codes, in pubBuf,
// for a freshly appended row, extending the translation when the row
// introduced a new value: the value's generalized label at the
// published level is interned, so values that generalize alike share a
// pub code.
func (s *Incremental) translateNew(keyCodes []int, rowID int) ([]int, error) {
	out := s.pubBuf
	for i, c := range keyCodes {
		pm := s.pubMaps[i]
		if pm.level == 0 {
			out[i] = c
			continue
		}
		if pub, ok := pm.byBase[c]; ok {
			out[i] = pub
			continue
		}
		attr := s.cfg.QIs[i]
		h, err := s.cfg.Hierarchies.Get(attr)
		if err != nil {
			return nil, err
		}
		label, err := h.Generalize(s.qiCols[i].Value(rowID).Str(), pm.level)
		if err != nil {
			return nil, fmt.Errorf("search: QI %s: %w", attr, err)
		}
		pub, ok := pm.labels[label]
		if !ok {
			pub = len(pm.labels)
			pm.labels[label] = pub
		}
		pm.byBase[c] = pub
		out[i] = pub
	}
	return out, nil
}

// Republish re-verdicts the published node against the current live
// rows and returns a batch-shaped Result. The fast path costs O(changed
// groups): suppression is re-gated from maintained sizes, and only the
// groups the deltas touched are re-scanned (core.RecheckGroups; a
// non-group-local policy such as t-closeness re-evaluates all groups of
// the published node, still without touching rows). When the incumbent
// no longer satisfies, repair climbs the lattice from it; when nothing
// is published — the first call, or after a not-found republish — the
// fallback strategy runs cold on the live snapshot.
//
// Result.Masked is nil on the fast and repair paths (materializing is
// O(live rows), defeating the point of a per-batch verdict); use
// Materialize. A not-found republish clears the published node.
func (s *Incremental) Republish() (Result, error) {
	if s.err != nil {
		return Result{}, s.err
	}
	if s.pub == nil {
		return s.coldPublish()
	}
	bounds, err := s.currentBounds()
	if err != nil {
		return Result{}, err
	}
	if !bounds.Feasible() {
		// Condition 1 on the current data: no masking of any node can
		// satisfy, exactly as the batch strategies report before touching
		// the lattice.
		s.clearPublished()
		var res Result
		res.Stats.PrunedCondition1 = 1
		res.Report = s.rec.Snapshot()
		return res, nil
	}
	var res Result
	res.Stats.NodesEvaluated = 1
	// Nothing built from the statistics here outlives the call, so they
	// are read without marking their histograms shared: the next Apply
	// copies none of them again.
	stats := s.pubStats.View()
	violating := stats.TuplesBelow(s.cfg.K)
	if violating > s.cfg.MaxSuppress {
		// The engine's over-budget verdict: rejected before any policy
		// scan.
		return s.repair(bounds, res.Stats)
	}
	post := stats.SuppressBelow(s.cfg.K)
	changed := s.changedSurvivors(stats)
	policy := core.Observe(s.cfg.effectivePolicy(bounds), s.cfg.Recorder)
	verdict, local, err := core.RecheckGroups(policy, core.StatsView{Stats: post, Conf: s.conf}, changed)
	if err != nil {
		return Result{}, err
	}
	if local {
		s.rec.GroupsRecheck(int64(len(changed)))
	}
	switch verdict.Reason {
	case core.FailedCondition1:
		res.Stats.PrunedCondition1++
	case core.FailedCondition2:
		res.Stats.PrunedCondition2++
	default:
		res.Stats.GroupScans++
	}
	if !verdict.Satisfied {
		return s.repair(bounds, res.Stats)
	}
	s.base.Reset()
	s.pubStats.Reset()
	res.found(MinimalNode{Node: s.pub.Clone(), Suppressed: violating})
	res.Report = s.rec.Snapshot()
	return res, nil
}

// changedSurvivors maps the changed-group indices (published-node
// statistics) onto the suppressed view SuppressBelow produced: one pass
// over the groups counts survivors, and changed groups that fell below
// k are dropped (their tuples are already counted as suppressed).
func (s *Incremental) changedSurvivors(stats *table.GroupStats) []int {
	changed := s.pubStats.Changed()
	out := make([]int, 0, len(changed))
	next, surv := 0, 0
	for gi := range stats.Groups {
		if next >= len(changed) {
			break
		}
		alive := stats.Groups[gi].Size >= s.cfg.K
		if gi == changed[next] {
			if alive {
				out = append(out, surv)
			}
			next++
		}
		if alive {
			surv++
		}
	}
	return out
}

// currentBounds refreshes the necessary-condition bounds from the
// maintained confidential totals and the live row count, as Run reads
// them off its base scan. It reads no group statistics, so it leaves
// the base histograms owned: the next Apply copies none of them again.
func (s *Incremental) currentBounds() (core.Bounds, error) {
	return conditionBounds(s.cfg, s.led.NumLive(), func() []table.CodeHist { return s.totals })
}

// repair climbs the lattice from the violating incumbent: strict
// ancestors are evaluated height by height through the ordinary engine
// — seeded with the maintained base statistics, so every candidate's
// statistics come from roll-up merges, never a row scan — and the first
// satisfying ancestor (in node order, deterministically) becomes the
// new published node. A tripped budget returns a partial not-found
// result with the deltas left unconsumed, so the next Republish
// retries; an exhausted ascent (no ancestor satisfies) falls back to
// the cold strategy, which searches branches the ascent cannot reach.
func (s *Incremental) repair(bounds core.Bounds, stats Stats) (Result, error) {
	s.rec.RepairAscent()
	span := s.rec.StartSpan(obs.PhaseRepair, nil)
	defer span.End()
	cfg := s.cfg
	cfg.strategy = "incremental-repair"
	lim := cfg.newLimiter()
	tbl := s.led.Table()
	eval := newLimitedEvaluator(tbl, s.m, s.m.NewCache(tbl, cfg.Recorder), cfg, lim).bind(bounds)
	lat := s.m.Lattice()
	bottom := lat.Bottom()
	eval.rollups.seed(bottom, s.base.Stats())
	res := Result{Stats: stats}
	for h := s.pub.Height() + 1; h <= lat.Height(); h++ {
		var cand []lattice.Node
		for _, n := range lat.NodesAtHeight(h) {
			if n.GeneralizationOf(s.pub) {
				cand = append(cand, n)
			}
		}
		if len(cand) == 0 {
			continue
		}
		// The ascent's in-scope node set grows level by level; add each
		// level so the /progress fraction stays meaningful mid-repair.
		s.rec.AddLatticeNodes(int64(len(cand)))
		i, o, err := eval.firstHit(cand, &res.Stats)
		if err != nil {
			return Result{}, err
		}
		if i >= 0 {
			if err := s.adopt(cand[i]); err != nil {
				return Result{}, s.poison(err)
			}
			s.base.Reset()
			s.pubStats.Reset()
			res.found(MinimalNode{Node: cand[i].Clone(), Suppressed: o.suppressed})
			res.StopReason = lim.stopReason()
			span.End()
			res.Report = s.rec.Snapshot()
			return res, nil
		}
		if lim.tripped() {
			// Partial: the incumbent stays (known violating) and the
			// changed-group set stays unconsumed; the next Republish
			// re-verdicts and resumes the repair.
			res.StopReason = lim.stopReason()
			span.End()
			res.Report = s.rec.Snapshot()
			return res, nil
		}
	}
	span.End()
	return s.coldPublish()
}

// coldPublish runs the fallback batch strategy on the live snapshot —
// the initial publication, and the terminal fallback when repair proves
// no ancestor of the incumbent satisfies. The returned Result is
// exactly the strategy's own (masked table included); on success the
// found node is adopted for incremental maintenance.
func (s *Incremental) coldPublish() (Result, error) {
	s.rec.ColdFallback()
	snap, err := s.led.Snapshot()
	if err != nil {
		return Result{}, err
	}
	res, err := Run(snap, s.cfg, s.fallback)
	if err != nil {
		return Result{}, err
	}
	if !res.Found {
		s.clearPublished()
		s.base.Reset()
		return res, nil
	}
	if err := s.adopt(res.Node); err != nil {
		return Result{}, s.poison(err)
	}
	s.base.Reset()
	s.pubStats.Reset()
	return res, nil
}

// adopt installs a node as the published one: the base-to-published
// code translation is rebuilt by generalizing one representative value
// per distinct base code (group representatives keep their data even
// when retired), the maintained base statistics are rolled up through
// it, and the result becomes the maintained published-node statistics.
// O(groups) — no row is touched.
func (s *Incremental) adopt(node lattice.Node) error {
	bs := s.base.Stats()
	maps := make([]*table.CodeMap, len(s.cfg.QIs))
	pubMaps := make([]*pubMap, len(s.cfg.QIs))
	for i, attr := range s.cfg.QIs {
		pm := &pubMap{level: node[i]}
		pubMaps[i] = pm
		if pm.level == 0 {
			continue // identity; maps[i] == nil is the identity roll-up
		}
		pm.byBase = make(map[int]int)
		pm.labels = make(map[string]int)
		h, err := s.cfg.Hierarchies.Get(attr)
		if err != nil {
			return err
		}
		for gi := range bs.Groups {
			g := &bs.Groups[gi]
			c := g.Codes[i]
			if _, ok := pm.byBase[c]; ok {
				continue
			}
			label, err := h.Generalize(s.qiCols[i].Value(g.Rep).Str(), pm.level)
			if err != nil {
				return fmt.Errorf("search: adopt %v: QI %s: %w", node, attr, err)
			}
			pub, ok := pm.labels[label]
			if !ok {
				pub = len(pm.labels)
				pm.labels[label] = pub
			}
			pm.byBase[c] = pub
		}
		maps[i] = table.NewSparseCodeMap(pm.byBase)
	}
	rolled, err := bs.Rollup(maps)
	if err != nil {
		return fmt.Errorf("search: adopt %v: %w", node, err)
	}
	pubStats, err := table.NewStatsDelta(rolled)
	if err != nil {
		return fmt.Errorf("search: adopt %v: %w", node, err)
	}
	s.pub = node.Clone()
	s.pubStats = pubStats
	s.pubMaps = pubMaps
	return nil
}

func (s *Incremental) clearPublished() {
	s.pub = nil
	s.pubStats = nil
	s.pubMaps = nil
}

// Materialize builds the masked table for the published node from the
// current live rows — generalize, then suppress within the budget —
// byte-identical to the batch pipeline on the live snapshot. It is the
// O(live rows) step a streaming publisher pays only when the masked
// release is actually exported; call it after a Republish that found
// the node satisfying.
func (s *Incremental) Materialize() (*table.Table, int, error) {
	if s.err != nil {
		return nil, 0, s.err
	}
	if s.pub == nil {
		return nil, 0, fmt.Errorf("search: nothing is published")
	}
	snap, err := s.led.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	g, err := s.m.NewCache(snap, nil).Apply(s.pub)
	if err != nil {
		return nil, 0, err
	}
	mm, suppressed, within, err := s.m.SuppressWithin(g, s.cfg.K, s.cfg.MaxSuppress)
	if err != nil {
		return nil, 0, err
	}
	if !within {
		return nil, 0, fmt.Errorf("search: published node %v exceeds the suppression budget on the current rows; republish first", s.pub)
	}
	return mm, suppressed, nil
}
