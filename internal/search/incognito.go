package search

import (
	"psk/internal/core"
	"psk/internal/obs"
	"psk/internal/table"
)

// BottomUp performs a bottom-up breadth-first search of the
// generalization lattice in the spirit of LeFevre et al.'s Incognito
// (the paper's reference [12]), adapted to p-sensitive k-anonymity:
// nodes are visited level by level from the bottom, and the search
// stops at the first level containing a satisfying node. Every
// satisfying node at that level is returned.
//
// Compared with Samarati's binary search it evaluates every node below
// the answer but never probes above it, and it yields all
// minimal-height solutions rather than the first one found. (Incognito's
// signature subset-lattice pruning concerns searches over multiple QI
// subsets; for a single fixed QI set, level-order scan is what remains.)
func BottomUp(im *table.Table, cfg Config) (ExhaustiveResult, error) {
	cfg.strategy = "bottom-up"
	m, err := cfg.validate()
	if err != nil {
		return ExhaustiveResult{}, err
	}
	var res ExhaustiveResult
	span := cfg.Recorder.StartSpan(obs.PhaseSearch, nil)
	defer span.End()

	bounds, err := searchBounds(im, cfg)
	if err != nil {
		return ExhaustiveResult{}, err
	}
	if !bounds.Feasible() {
		res.Stats.PrunedCondition1 = 1
		span.End()
		res.Report = cfg.Recorder.Snapshot()
		return res, nil
	}

	eval := newEvaluator(im, m, nil, cfg, bounds)
	lat := m.Lattice()
	cfg.Recorder.AddLatticeNodes(int64(lat.Size()))
	for h := 0; h <= lat.Height(); h++ {
		nodes := lat.NodesAtHeight(h)
		outs, err := eval.evalAll(nodes, &res.Stats)
		if err != nil {
			return ExhaustiveResult{}, err
		}
		var levelHits []MinimalNode
		for i, o := range outs {
			if o.ok {
				levelHits = append(levelHits, MinimalNode{Node: nodes[i], Masked: o.masked, Suppressed: o.suppressed})
			}
		}
		if len(levelHits) > 0 {
			res.Minimal = levelHits
			for _, hit := range levelHits {
				res.Satisfying = append(res.Satisfying, hit.Node)
			}
			// BottomUp makes no monotonicity assumption, so the frontier
			// pass must not cut up-sets either.
			if err := attachFrontier(eval, lat, false, &res.Stats, &res.Frontier, &span); err != nil {
				return ExhaustiveResult{}, err
			}
			res.StopReason = eval.lim.stopReason()
			span.End()
			res.Report = cfg.Recorder.Snapshot()
			return res, nil
		}
		if eval.lim.tripped() {
			break
		}
	}
	if err := attachFrontier(eval, lat, false, &res.Stats, &res.Frontier, &span); err != nil {
		return ExhaustiveResult{}, err
	}
	res.StopReason = eval.lim.stopReason()
	span.End()
	res.Report = cfg.Recorder.Snapshot()
	return res, nil
}

// FindAnonymous is a convenience wrapper that runs Samarati and, when
// nothing satisfies within the suppression budget, reports the reason
// derived from the necessary conditions.
func FindAnonymous(im *table.Table, cfg Config) (Result, core.Reason, error) {
	res, err := Samarati(im, cfg)
	if err != nil {
		return Result{}, core.Satisfied, err
	}
	if res.Found {
		return res, core.Satisfied, nil
	}
	if res.Stats.PrunedCondition1 > 0 {
		return res, core.FailedCondition1, nil
	}
	return res, core.NotPSensitive, nil
}
