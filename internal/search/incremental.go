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
//   - Under row churn the session maintains only what a republish
//     reads: the table.Ledger of rows, each confidential attribute's
//     whole-table histogram (what the Condition 1–2 bounds read), and a
//     table.StatsDelta of the published node's statistics, fed through
//     a per-session code translation (pubMap), so each batch costs
//     O(rows in batch).
//   - Republish re-verdicts only the groups the batch touched
//     (core.RecheckGroups), so an unchanged verdict costs O(changed
//     groups), never O(rows), and reads its bounds off the maintained
//     histograms.
//   - When the incumbent node stops satisfying, repair climbs the
//     lattice from it — evaluating only its ancestors, height by
//     height, through the ordinary engine on a snapshot of the live
//     rows — and only falls back to a cold batch search when no
//     ancestor satisfies (the paper's monotonicity premise makes that
//     fallback rare: generalizing more re-satisfies k-anonymity and
//     p-sensitivity unless the dataset itself became infeasible). Repair
//     and adoption read the live rows afresh, O(live rows), a cost only
//     a batch that breaks the published node pays.
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
	// republish. translate generalizes new values through qiHier too.
	qiIdx  []int
	qiHier []hierarchy.Hierarchy
	qiDims []int

	// totals holds each confidential attribute's histogram over the live
	// rows, what Conditions 1–2 read. Every node's statistics sum to the
	// same totals, so one copy moves with each row Apply absorbs.
	totals []table.CodeHist

	// base is the bottom-node statistics of the live rows in the
	// ledger's codes, which adopt rolls up: the open-time scan, or
	// liveBase's, kept until the next Apply moves the rows.
	base *table.GroupStats

	// keyBuf, confBuf and pubBuf hold the codes of the row being
	// absorbed: base QI codes, confidential codes and published-node QI
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
// O(batch) time. The fallback strategy serves the initial publication
// and any republish the repair ascent cannot settle. The base scan
// serves the initial publication's adoption; a repair, or a cold
// republish after a batch, reads the live rows again.
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
	s.base = bs
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
// order). The ledger, the confidential totals and the published node's
// statistics move together; on error the batch stops at the failing
// row — rows before it are fully absorbed, the failing row not at all —
// and an error that can leave the layers disagreeing poisons the
// session permanently.
func (s *Incremental) Apply(appends [][]string, retires []int) error {
	if s.err != nil {
		return s.err
	}
	s.base = nil
	keyCodes, confCodes := s.keyBuf, s.confBuf
	for _, id := range retires {
		if err := s.led.Retire(id); err != nil {
			return err
		}
		// Retired rows stay addressable, so codes can be read after the
		// flag flips; a failure past this point poisons the session.
		s.rowCodes(id, keyCodes, confCodes)
		for a, c := range confCodes {
			h, err := s.totals[a].Sub(c)
			if err != nil {
				return s.poison(fmt.Errorf("search: confidential totals: %w", err))
			}
			s.totals[a] = h
		}
		if s.pubStats != nil {
			pubCodes, err := s.translate(keyCodes, id)
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
		for a, c := range confCodes {
			s.totals[a] = s.totals[a].Add(c)
		}
		if s.pubStats != nil {
			pubCodes, err := s.translate(keyCodes, id)
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

// translate maps a row's base QI codes to published-node codes, in
// pubBuf, extending the translation when the row carries a value it has
// not seen: the value's generalized label at the published level is
// interned, so values that generalize alike share a pub code.
func (s *Incremental) translate(keyCodes []int, rowID int) ([]int, error) {
	out := s.pubBuf
	for i, c := range keyCodes {
		pm := s.pubMaps[i]
		if pm.level == 0 {
			out[i] = c
			continue
		}
		pub, ok := pm.byBase[c]
		if !ok {
			label, err := s.qiHier[i].Generalize(s.qiCols[i].Value(rowID).Str(), pm.level)
			if err != nil {
				return nil, fmt.Errorf("search: QI %s: %w", s.cfg.QIs[i], err)
			}
			if pub, ok = pm.labels[label]; !ok {
				pub = len(pm.labels)
				pm.labels[label] = pub
			}
			pm.byBase[c] = pub
		}
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
	// Nothing built from the statistics here outlives the call.
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
	r, local, err := core.RecheckGroups(policy, core.StatsView{Stats: post, Conf: s.conf}, changed)
	if err != nil {
		return Result{}, err
	}
	if local {
		s.rec.GroupsRecheck(int64(len(changed)))
	}
	verdict(r, &res.Stats)
	if !r.Satisfied {
		return s.repair(bounds, res.Stats)
	}
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
// them off its base scan.
func (s *Incremental) currentBounds() (core.Bounds, error) {
	return conditionBounds(s.cfg, s.led.NumLive(), func() []table.CodeHist { return s.totals })
}

// repair climbs the lattice from the violating incumbent: strict
// ancestors are evaluated height by height through the ordinary engine
// on a snapshot of the live rows — its bottom scanned first, as Run
// does, so candidates roll up from it and a row-scan fallback reads
// live rows only — and the first satisfying ancestor (in node order,
// deterministically) becomes the new published node. A tripped budget
// returns a partial not-found result with the deltas left unconsumed,
// so the next Republish retries; an exhausted ascent (no ancestor
// satisfies) falls back to the cold strategy, which searches branches
// the ascent cannot reach.
func (s *Incremental) repair(bounds core.Bounds, stats Stats) (Result, error) {
	s.rec.RepairAscent()
	span := s.rec.StartSpan(obs.PhaseRepair, nil)
	defer span.End()
	snap, err := s.led.Snapshot()
	if err != nil {
		return Result{}, err
	}
	cfg := s.cfg
	cfg.strategy = "incremental-repair"
	e := newEvaluator(snap, s.m, cfg).bind(bounds)
	lat := s.m.Lattice()
	if _, err := e.statsFor(lat.Bottom()); err != nil {
		return Result{}, err
	}
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
		outs, i, err := e.eval(cand, true, &res.Stats)
		if err != nil {
			return Result{}, err
		}
		if i >= 0 {
			if err := s.adopt(cand[i]); err != nil {
				return Result{}, s.poison(err)
			}
			res.found(MinimalNode{Node: cand[i].Clone(), Suppressed: outs[i].suppressed})
			res.StopReason = e.lim.stopReason()
			span.End()
			res.Report = s.rec.Snapshot()
			return res, nil
		}
		if e.lim.tripped() {
			// Partial: the incumbent stays (known violating) and the
			// changed-group set stays unconsumed; the next Republish
			// re-verdicts and resumes the repair.
			res.StopReason = e.lim.stopReason()
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
		return res, nil
	}
	if err := s.adopt(res.Node); err != nil {
		return Result{}, s.poison(err)
	}
	return res, nil
}

// adopt installs a node as the published one: the base-to-published
// code translation is rebuilt by passing each live base group's codes
// and representative row through translate, the live base statistics
// are rolled up through it, and the result becomes the maintained
// published-node statistics. O(groups), once the live base is at hand.
func (s *Incremental) adopt(node lattice.Node) error {
	bs, err := s.liveBase()
	if err != nil {
		return err
	}
	s.pubMaps = make([]*pubMap, len(node))
	for i, lvl := range node {
		s.pubMaps[i] = &pubMap{level: lvl, byBase: make(map[int]int), labels: make(map[string]int)}
	}
	for gi := range bs.Groups {
		if _, err := s.translate(bs.Groups[gi].Codes, bs.Groups[gi].Rep); err != nil {
			return fmt.Errorf("search: adopt %v: %w", node, err)
		}
	}
	maps := make([]*table.CodeMap, len(node))
	for i, pm := range s.pubMaps {
		if pm.level > 0 { // nil is the identity roll-up
			maps[i] = table.NewSparseCodeMap(pm.byBase)
		}
	}
	rolled, err := bs.Rollup(maps)
	if err != nil {
		return fmt.Errorf("search: adopt %v: %w", node, err)
	}
	if s.pubStats, err = table.NewStatsDelta(rolled); err != nil {
		return fmt.Errorf("search: adopt %v: %w", node, err)
	}
	s.pub = node.Clone()
	return nil
}

// liveBase returns the bottom-node statistics of the live rows, kept
// until the next Apply. It scans the ledger and subtracts the retired
// rows, rather than scanning a snapshot, so the codes stay the
// ledger's: a snapshot re-interns Float columns, and Apply translates
// ledger codes. Groups the retired rows emptied are dropped.
func (s *Incremental) liveBase() (*table.GroupStats, error) {
	if s.base != nil {
		return s.base, nil
	}
	all, err := s.led.Table().GroupStats(s.cfg.QIs, s.conf, max(s.cfg.Workers, 1))
	if err != nil {
		return nil, err
	}
	d, err := table.NewStatsDelta(all)
	if err != nil {
		return nil, err
	}
	for id := range s.led.NumRows() {
		if s.led.Live(id) {
			continue
		}
		s.rowCodes(id, s.keyBuf, s.confBuf)
		if _, err := d.Retire(s.keyBuf, s.confBuf); err != nil {
			return nil, err
		}
	}
	s.base = d.View().SuppressBelow(1)
	return s.base, nil
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
