package search

import (
	"fmt"

	"psk/internal/core"
	"psk/internal/lattice"
	"psk/internal/loss"
	"psk/internal/obs"
)

// This file adds the utility-aware Pareto frontier mode to every
// strategy: one budget-bounded pass over the lattice that scores each
// satisfying node with the statistics-native loss metrics (O(groups)
// per node, nothing materialized) and reduces the scored set under
// multi-objective dominance. The reduction is deterministic — entries
// are collected in lattice walk order, exact objective ties are
// resolved toward the earlier node, and every score is insensitive to
// group order — so the frontier is byte-identical at every worker
// count.

// Objective identifies one axis of the frontier reduction. Every axis
// is minimized; the two "bigger is better" quantities are folded into
// that convention (ObjPrecision minimizes 1 - Prec, ObjMargin minimizes
// the negated minimum group size, i.e. prefers the larger privacy
// slack).
type Objective uint8

const (
	// ObjHeight minimizes the normalized generalization height.
	ObjHeight Objective = iota
	// ObjPrecision minimizes Sweeney's precision loss (1 - Prec).
	ObjPrecision
	// ObjDiscernibility minimizes the discernibility metric DM.
	ObjDiscernibility
	// ObjAvgGroup minimizes C_AVG, the normalized average group size.
	ObjAvgGroup
	// ObjSuppression minimizes the suppressed-tuple ratio.
	ObjSuppression
	// ObjEntropy minimizes the summed per-QI entropy loss in bits.
	ObjEntropy
	// ObjMargin maximizes the minimum QI-group size — the policy
	// strictness axis: a release whose smallest group is far above k
	// withstands a stricter k (and, with histograms, a stricter p)
	// without re-search.
	ObjMargin

	numObjectives
)

var objectiveNames = [numObjectives]string{
	"height", "precision", "discernibility", "avg-group",
	"suppression", "entropy", "margin",
}

func (o Objective) String() string {
	if o < numObjectives {
		return objectiveNames[o]
	}
	return fmt.Sprintf("Objective(%d)", uint8(o))
}

// DefaultObjectives is the frontier the publisher usually wants: the
// three information-loss axes the paper's utility discussion motivates
// (discernibility, entropy loss, suppression) traded against the
// privacy margin. Height and precision are node properties the caller
// can always rank by afterwards; leaving them out keeps the default
// frontier from absorbing every node of a tall lattice.
func DefaultObjectives() []Objective {
	return []Objective{ObjDiscernibility, ObjEntropy, ObjSuppression, ObjMargin}
}

// FrontierConfig switches a search into frontier mode.
type FrontierConfig struct {
	// Enabled adds a frontier pass after the strategy's own search: the
	// lattice is re-walked (memoized roll-up statistics make re-visits
	// O(groups)), every satisfying node is scored, and Result.Frontier
	// receives the dominance-reduced set. The pass draws on the same
	// budget limiter as the search proper.
	Enabled bool
	// Objectives are the axes of the dominance reduction; empty selects
	// DefaultObjectives().
	Objectives []Objective
	// MaxRank admits entries up to this dominance rank: 0 (the default)
	// keeps only the Pareto set, 1 adds the second front, and so on.
	MaxRank int
}

// FrontierEntry is one member of the reduced frontier.
type FrontierEntry struct {
	// Node is the scored lattice node.
	Node lattice.Node
	// Verdict is the policy verdict at Node (always satisfied).
	Verdict core.Result
	// Loss is the full metric report, computed on the statistics path.
	Loss loss.Report
	// MinGroup is the smallest QI-group size of the release (the margin
	// axis), Groups the group count, Suppressed the tuples removed.
	MinGroup   int
	Groups     int
	Suppressed int
	// Rank is the dominance rank: 0 = Pareto-optimal, 1 = dominated
	// only by rank 0, ...
	Rank int
}

// objective extracts one minimized coordinate of the entry.
func (f *FrontierEntry) objective(o Objective) float64 {
	switch o {
	case ObjHeight:
		return f.Loss.HeightRatio
	case ObjPrecision:
		return 1 - f.Loss.Precision
	case ObjDiscernibility:
		return float64(f.Loss.Discernibility)
	case ObjAvgGroup:
		return f.Loss.AvgGroupRatio
	case ObjSuppression:
		return f.Loss.SuppressionRatio
	case ObjEntropy:
		return f.Loss.EntropyLossBits
	case ObjMargin:
		return -float64(f.MinGroup)
	}
	return 0
}

// frontierScan walks the lattice level by level (AllMinimal's candidate
// enumeration), scores every satisfying node from its post-suppression
// statistics, and returns the dominance-reduced frontier. The walk runs
// on the strategy's evaluator, sharing its roll-up store, cache and
// limiter: nodes the search already evaluated re-verdict from memoized
// statistics, and the whole strategy call still spends one budget. It
// scores every satisfying node under every strategy, so a ranked
// frontier does not depend on the strategy that ran.
func (e *evaluator) frontierScan(lat *lattice.Lattice, base *loss.Baseline, stats *Stats) ([]FrontierEntry, error) {
	fc := e.cfg.Frontier
	objs := fc.Objectives
	if len(objs) == 0 {
		objs = DefaultObjectives()
	}

	rows := e.im.NumRows()
	var entries []FrontierEntry
	for h := 0; h <= lat.Height(); h++ {
		nodes := lat.NodesAtHeight(h)
		outs, err := e.evalAll(nodes, stats)
		if err != nil {
			return nil, err
		}
		for i, node := range nodes {
			o := outs[i]
			if !o.ok {
				continue
			}
			rep, err := loss.MeasureStats(loss.StatsInput{
				Stats: o.post, Rows: rows, Baseline: base,
				Node: node, Lattice: lat, K: e.cfg.K,
			})
			if err != nil {
				return nil, err
			}
			entries = append(entries, FrontierEntry{
				Node: node.Clone(), Verdict: o.res, Loss: rep,
				MinGroup: o.post.MinGroupSize(), Groups: o.post.NumGroups(),
				Suppressed: o.suppressed,
			})
			e.rec.FrontierScored()
		}
		if e.lim.tripped() {
			// Levels below completed in full; the reduced set over them is
			// a valid frontier of the evaluated region.
			break
		}
	}
	frontier := reduceFrontier(entries, objs, fc.MaxRank)
	e.rec.FrontierReduced(int64(len(entries)), int64(len(frontier)))
	return frontier, nil
}

// attachFrontier runs the frontier pass when the configuration asks for
// one and stores the result; Run calls it just before computing the
// stop reason so a budget trip inside the scan is reported. base is the
// entropy baseline Run read off the base statistics. parent is the
// search's root span (may be nil or disabled): the scan runs under a
// nested frontier-scan span, so the report's phase table attributes the
// pass's wall time to the frontier, not to the search's self time.
func attachFrontier(e *evaluator, lat *lattice.Lattice, base *loss.Baseline, stats *Stats, dst *[]FrontierEntry, parent *obs.Span) error {
	if !e.cfg.Frontier.Enabled {
		return nil
	}
	sp := e.rec.StartSpan(obs.PhaseFrontier, parent)
	defer sp.End()
	fr, err := e.frontierScan(lat, base, stats)
	if err != nil {
		return err
	}
	*dst = fr
	return nil
}

// beats reports whether entry a eliminates entry b: a is no worse on
// every objective and either strictly better somewhere, or an exact tie
// that a — earlier in lattice walk order — wins. The tie rule keeps the
// relation a strict partial order (irreflexive, antisymmetric,
// transitive), so reduceFrontier's peeling always finds a non-empty
// front and terminates, and it deduplicates identical objective vectors
// deterministically toward the lowest node.
func beats(a, b *FrontierEntry, objs []Objective, aEarlier bool) bool {
	strict := false
	for _, o := range objs {
		va, vb := a.objective(o), b.objective(o)
		if va > vb {
			return false
		}
		if va < vb {
			strict = true
		}
	}
	return strict || aEarlier
}

// reduceFrontier assigns dominance ranks by peeling: rank 0 is the set
// of entries no other entry beats, rank 1 the set unbeaten once rank 0
// is removed, and so on. Entries with rank <= maxRank are returned in
// their original (lattice walk) order with Rank filled in.
func reduceFrontier(entries []FrontierEntry, objs []Objective, maxRank int) []FrontierEntry {
	if len(entries) == 0 {
		return nil
	}
	rank := make([]int, len(entries))
	for i := range rank {
		rank[i] = -1
	}
	for r, assigned := 0, 0; assigned < len(entries); r++ {
		var front []int
		for i := range entries {
			if rank[i] >= 0 {
				continue
			}
			beaten := false
			for j := range entries {
				if j == i || rank[j] >= 0 {
					continue
				}
				if beats(&entries[j], &entries[i], objs, j < i) {
					beaten = true
					break
				}
			}
			if !beaten {
				front = append(front, i)
			}
		}
		for _, i := range front {
			rank[i] = r
		}
		assigned += len(front)
	}
	var out []FrontierEntry
	for i := range entries {
		if rank[i] <= maxRank {
			entries[i].Rank = rank[i]
			out = append(out, entries[i])
		}
	}
	return out
}
