package search

import "psk/internal/lattice"

// bottomUp is the walk of StrategyBottomUp: a bottom-up breadth-first
// search of the generalization lattice in the spirit of LeFevre et al.'s
// Incognito (the paper's reference [12]), adapted to p-sensitive
// k-anonymity: nodes are visited level by level from the bottom, and the
// search stops at the first level containing a satisfying node. Every
// satisfying node at that level is appended.
//
// Compared with Samarati's binary search it evaluates every node below
// the answer but never probes above it, and it yields all
// minimal-height solutions rather than the first one found. (Incognito's
// signature subset-lattice pruning concerns searches over multiple QI
// subsets; for a single fixed QI set, level-order scan is what remains.)
func bottomUp(e *evaluator, lat *lattice.Lattice, res *Result) error {
	for h := 0; h <= lat.Height(); h++ {
		nodes := lat.NodesAtHeight(h)
		outs, _, err := e.eval(nodes, false, &res.Stats)
		if err != nil {
			return err
		}
		for i, o := range outs {
			if o.ok {
				res.Minimal = append(res.Minimal, o.minimal(nodes[i]))
				res.Satisfying = append(res.Satisfying, nodes[i])
			}
		}
		if len(res.Minimal) > 0 || e.lim.tripped() {
			break
		}
	}
	return nil
}
