package search

import "psk/internal/lattice"

// exhaustive is the walk of StrategyExhaustive: it evaluates every node
// of the generalization lattice and appends all p-k-minimal
// generalizations (Definition 3: the satisfying nodes with no satisfying
// node strictly below them). Unlike Samarati it makes no monotonicity
// assumption, so it is the reference implementation the tests compare
// the faster searches against; it also powers Table 4, whose lattice
// has only six nodes. Every node is independent, so with
// cfg.Workers > 1 the whole lattice is evaluated concurrently.
func exhaustive(e *evaluator, lat *lattice.Lattice, res *Result) error {
	nodes := lat.AllNodes()
	outs, err := e.evalAll(nodes, &res.Stats)
	if err != nil {
		return err
	}
	var hits []MinimalNode
	for i, o := range outs {
		if o.ok {
			hits = append(hits, o.minimal(nodes[i]))
			res.Satisfying = append(res.Satisfying, nodes[i])
		}
	}
	for _, n := range lattice.Minimal(res.Satisfying) {
		for _, h := range hits {
			if h.Node.Equal(n) {
				res.Minimal = append(res.Minimal, h)
				break
			}
		}
	}
	return nil
}
