package search

import "psk/internal/lattice"

// samarati is the walk of StrategySamarati, the paper's Algorithm 3: a
// binary search on the height of the generalization lattice for a
// p-k-minimal generalization, with the two necessary conditions used as
// early rejection filters.
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
//     post-suppression group statistics (the bounded policy,
//     core.WithBounds, evaluated after the suppression step), which is
//     the exact form of Condition 2; the bound value itself is still the
//     one computed once on the initial microdata, as licensed by
//     Theorems 1 and 2.
//   - The binary search assumes the satisfying heights form an
//     upward-closed set, which holds for k-anonymity with suppression
//     and for p-sensitivity under pure generalization (the paper's
//     premise). Use StrategyExhaustive when that assumption must not be
//     trusted.
//
// It appends the first satisfying node found at the minimal satisfying
// height, if any; StrategyExhaustive enumerates all p-k-minimal nodes
// when every solution is wanted.
func samarati(e *evaluator, lat *lattice.Lattice, res *Result) error {
	low, high := 0, lat.Height()
	var found *MinimalNode
	for low < high {
		try := (low + high) / 2
		r, err := e.firstAtHeight(lat, try, &res.Stats)
		if err != nil {
			return err
		}
		if r != nil {
			// A hit is a genuinely satisfying node even when the probe was
			// budget-truncated, so record it before checking the limiter.
			found = r
			high = try
		}
		if e.lim.tripped() {
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
	if !e.lim.tripped() && (found == nil || found.Node.Height() != low) {
		r, err := e.firstAtHeight(lat, low, &res.Stats)
		if err != nil {
			return err
		}
		if r != nil {
			found = r
		}
	}
	if found != nil {
		res.Minimal = append(res.Minimal, *found)
	}
	return nil
}

// firstAtHeight probes every node at one height (lexicographic order)
// as one first-hit batch of the evaluation engine and returns the first
// satisfying result in node order, or nil. Workers > 1 evaluates the
// height's nodes concurrently with deterministic reduction.
func (e *evaluator) firstAtHeight(lat *lattice.Lattice, h int, stats *Stats) (*MinimalNode, error) {
	nodes := lat.NodesAtHeight(h)
	outs, i, err := e.eval(nodes, true, stats)
	if err != nil || i < 0 {
		return nil, err
	}
	m := outs[i].minimal(nodes[i])
	return &m, nil
}
