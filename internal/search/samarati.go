package search

import (
	"psk/internal/core"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// Samarati implements the paper's Algorithm 3: a binary search on the
// height of the generalization lattice for a p-k-minimal generalization,
// with the two necessary conditions used as early rejection filters.
//
// Faithfulness notes:
//
//   - Condition 1 (p <= maxP) is checked once on the initial microdata,
//     before any node is evaluated, exactly as Algorithm 3 does.
//   - Condition 2 is applied per node. Algorithm 3 as printed filters on
//     the group count of the generalized-only table; because suppression
//     can only reduce the group count, that filter can reject a node
//     whose final masked microdata actually satisfies the condition.
//     This implementation therefore applies the bound to the
//     post-suppression table (via core.CheckWithBounds), which is the
//     exact form of Condition 2; the bound value itself is still the one
//     computed once on the initial microdata, as licensed by Theorems 1
//     and 2.
//   - The binary search assumes the satisfying heights form an
//     upward-closed set, which holds for k-anonymity with suppression
//     and for p-sensitivity under pure generalization (the paper's
//     premise). Use Exhaustive when that assumption must not be trusted.
//
// The returned node is the first satisfying node found at the minimal
// satisfying height; Exhaustive enumerates all p-k-minimal nodes when
// every solution is wanted. With cfg.Workers > 1 the nodes of each
// probed height are evaluated concurrently; the result is identical to
// the serial search.
func Samarati(im *table.Table, cfg Config) (Result, error) {
	cfg.strategy = "samarati"
	m, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	var res Result
	span := cfg.Recorder.StartSpan(obs.PhaseSearch, nil)
	defer span.End()

	bounds, err := searchBounds(im, cfg)
	if err != nil {
		return Result{}, err
	}
	if !bounds.Feasible() {
		// First necessary condition: no masked microdata derived from im
		// can be p-sensitive. Checked before touching the lattice.
		res.Stats.PrunedCondition1 = 1
		span.End()
		res.Report = cfg.Recorder.Snapshot()
		return res, nil
	}

	eval := newEvaluator(im, m, nil, cfg, bounds)
	lat := m.Lattice()
	cfg.Recorder.AddLatticeNodes(int64(lat.Size()))
	low, high := 0, lat.Height()
	var found *Result
	for low < high {
		try := (low + high) / 2
		r, err := eval.firstAtHeight(lat, try, &res.Stats)
		if err != nil {
			return Result{}, err
		}
		if r != nil {
			// A hit is a genuinely satisfying node even when the probe was
			// budget-truncated, so record it before checking the limiter.
			found = r
			high = try
		}
		if eval.lim.tripped() {
			// The probe stopped early: a "no hit" verdict is unreliable, so
			// neither bound may move on it. Return the best-so-far instead
			// of descending on bad information.
			break
		}
		if r == nil {
			low = try + 1
		}
	}
	// low == high: the candidate minimal height. If the last successful
	// probe was exactly at this height we already have the answer;
	// otherwise probe it (covers both the "never probed" and the
	// "nothing satisfies anywhere" cases).
	if !eval.lim.tripped() && (found == nil || found.Node.Height() != low) {
		r, err := eval.firstAtHeight(lat, low, &res.Stats)
		if err != nil {
			return Result{}, err
		}
		if r != nil {
			found = r
		}
	}
	if err := attachFrontier(eval, lat, true, &res.Stats, &res.Frontier, &span); err != nil {
		return Result{}, err
	}
	res.StopReason = eval.lim.stopReason()
	span.End()
	if found == nil {
		res.Report = cfg.Recorder.Snapshot()
		return res, nil
	}
	found.Stats = res.Stats
	found.Frontier = res.Frontier
	found.StopReason = res.StopReason
	found.Report = cfg.Recorder.Snapshot()
	return *found, nil
}

// searchBounds computes the necessary-condition bounds on the initial
// microdata when the built-in property is searched with conditions
// enabled and p >= 2; otherwise it returns permissive bounds that never
// reject. A custom Policy brings its own bounds (core.WithBounds), so
// no dataset scan happens on its behalf here.
func searchBounds(im *table.Table, cfg Config) (core.Bounds, error) {
	if cfg.Policy == nil && cfg.UseConditions && cfg.P >= 2 {
		return core.ComputeBounds(im, cfg.Confidential, cfg.P)
	}
	return core.Bounds{MaxP: cfg.P, MaxGroups: im.NumRows(), P: cfg.P}, nil
}

// firstAtHeight probes every node at one height (lexicographic order)
// through the evaluation engine and returns the first satisfying result
// in node order, or nil. Workers > 1 evaluates the height's nodes
// concurrently with deterministic reduction.
func (e *evaluator) firstAtHeight(lat *lattice.Lattice, h int, stats *Stats) (*Result, error) {
	nodes := lat.NodesAtHeight(h)
	i, o, err := e.firstHit(nodes, stats)
	if err != nil {
		return nil, err
	}
	if i < 0 {
		return nil, nil
	}
	return &Result{Found: true, Node: nodes[i], Masked: o.masked, Suppressed: o.suppressed}, nil
}
