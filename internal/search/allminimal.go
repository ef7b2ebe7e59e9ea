package search

import (
	"psk/internal/lattice"
	"psk/internal/table"
)

// allMinimal is the walk of StrategyAllMinimal. It enumerates every
// p-k-minimal generalization (Definition 3)
// using predictive tagging in the style of El Emam's Optimal Lattice
// Anonymization: the lattice is walked bottom-up, and as soon as a node
// satisfies the property every strict generalization of it is tagged
// and never evaluated — by generalization monotonicity they all satisfy
// but none can be minimal. An untagged node that evaluates to
// satisfied therefore has only failing predecessors, which makes it
// minimal by construction.
//
// Compared with Exhaustive (which evaluates all prod(h_i + 1) nodes)
// this skips the entire up-set of every minimal node; compared with
// BottomUp it returns the complete minimal antichain, not only the
// minimal-height slice. Like Samarati it relies on the monotonicity
// premise of the paper; Exhaustive remains the assumption-free
// reference.
func allMinimal(e *evaluator, lat *lattice.Lattice, res *Result) error {
	tagged := make(map[string]bool) // known satisfied via a specialization
	for h := 0; h <= lat.Height(); h++ {
		// Tagging only ever marks strict generalizations — nodes at
		// strictly greater heights — so the level's tag state is fixed
		// before any of its nodes is evaluated. That makes the untagged
		// frontier of each level a set of independent evaluations, which
		// the engine can fan out across workers; results merge back in
		// node order, identical to the serial walk.
		nodes := lat.NodesAtHeight(h)
		var candidates []lattice.Node
		candIdx := make([]int, len(nodes)) // node index -> candidate index, -1 if tagged
		for i, node := range nodes {
			if tagged[node.Key()] {
				candIdx[i] = -1
				continue
			}
			candIdx[i] = len(candidates)
			candidates = append(candidates, node)
		}
		outs, _, err := e.eval(candidates, false, &res.Stats)
		if err != nil {
			return err
		}
		for i, node := range nodes {
			if candIdx[i] < 0 {
				res.Satisfying = append(res.Satisfying, node)
				tagUp(lat, node, tagged)
				continue
			}
			if o := outs[candIdx[i]]; o.ok {
				res.Satisfying = append(res.Satisfying, node)
				res.Minimal = append(res.Minimal, o.minimal(node))
				tagUp(lat, node, tagged)
			}
		}
		if e.lim.tripped() {
			// Levels below completed in full, so every node in Minimal is
			// genuinely minimal; higher levels stay unexplored.
			break
		}
	}
	return nil
}

// AllMinimal is Run with StrategyAllMinimal. It stays exported only
// because bench/frontier.go calls it.
func AllMinimal(im *table.Table, cfg Config) (Result, error) {
	return Run(im, cfg, StrategyAllMinimal)
}

// tagUp marks every strict generalization of node as known-satisfied.
func tagUp(lat *lattice.Lattice, node lattice.Node, tagged map[string]bool) {
	for _, succ := range lat.Successors(node) {
		if !tagged[succ.Key()] {
			tagged[succ.Key()] = true
			tagUp(lat, succ, tagged)
		}
	}
}
