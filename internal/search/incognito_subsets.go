package search

import (
	"sort"

	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// incognito is the walk of StrategyIncognito, the subset-lattice search
// of LeFevre, DeWitt and Ramakrishnan ("Incognito", SIGMOD 2005 — the
// paper's reference [12]), extended to p-sensitive k-anonymity. The key
// observation is the subset property: if a masked microdata satisfies
// the property with respect to a QI set S, it satisfies it with respect
// to every subset of S (subset groupings are coarser, so groups only
// grow, and growing a group can lose neither members nor distinct
// confidential values). Contrapositively, a node of the full lattice
// whose projection onto any smaller subset failed cannot succeed, and
// is pruned without being evaluated.
//
// Suppression limits the property. A coarser grouping suppresses fewer
// tuples, so a projection can release groups the node suppressed, and
// those may fail the policy where the node's release satisfied (an
// empty release satisfies vacuously). So when tuples may be suppressed,
// only a projection over the suppression budget refutes the node: a
// tuple in a sub-k group of the projection is in a sub-k group of the
// node, so the node is over budget too. Plain k-anonymity fails only
// over budget, so its pruning is unchanged by this.
//
// Subsets are processed in increasing size; within each subset's
// lattice, nodes are visited bottom-up and upward tagging skips the
// up-set of every satisfying node (as in AllMinimal). The final pass
// over the full QI set yields the complete p-k-minimal antichain. The
// smaller QI subsets get their own evaluators, sharing the run's limiter
// and column cache; the final pass over the full QI set runs on the
// run's evaluator.
func incognito(e *evaluator, lat *lattice.Lattice, res *Result) error {
	cfg := e.cfg
	qis := cfg.QIs
	mAttrs := len(qis)
	fullDims := lat.Dims()

	// refuted[mask] is the set of node keys for the QI subset encoded by
	// mask (bit i = qis[i] present) whose failure proves that every node
	// projecting onto them fails. Node keys are over the subset's own
	// coordinates, in ascending attribute order.
	refuted := make(map[uint32]map[string]bool)
	everyFailureRefutes := cfg.MaxSuppress == 0

	// Enumerate masks grouped by popcount.
	masks := make([][]uint32, mAttrs+1)
	for mask := uint32(1); mask < 1<<mAttrs; mask++ {
		pc := popcount(mask)
		masks[pc] = append(masks[pc], mask)
	}

	// Frequency sets roll up across QI subsets too — the classic
	// Incognito formulation: the base-level statistics over the full QI
	// set, which Run computed on the run's evaluator, are every subset
	// lattice's bottom once projected, so no subset search ever re-scans
	// rows. Projections chain by descending subset size — each mask
	// projects from a one-attribute-larger superset with the fewest
	// groups — so most merge a few hundred groups instead of the full
	// base-level group set.
	fullMask := uint32(1<<mAttrs) - 1
	projStats := make(map[uint32]*table.GroupStats, fullMask)
	projStats[fullMask] = e.rollups.lookup(lat.Bottom())
	// The 2^m − 2 projections are work before any node is evaluated, so
	// the loop passes the limiter's checkpoint itself: a cancelled,
	// expired or over-budget search stops here with the limiter's reason.
	for size := mAttrs - 1; size >= 1; size-- {
		for _, mask := range masks[size] {
			if !e.lim.checkpoint() {
				return nil
			}
			var parent *table.GroupStats
			var parentMask uint32
			for i := 0; i < mAttrs; i++ {
				if mask&(1<<uint(i)) != 0 {
					continue
				}
				if ps := projStats[mask|1<<uint(i)]; parent == nil || ps.NumGroups() < parent.NumGroups() {
					parent, parentMask = ps, mask|1<<uint(i)
				}
			}
			// keep holds the positions of mask's attributes among the
			// parent's key columns (the parent mask's set bits,
			// ascending).
			keep := make([]int, 0, size)
			col := 0
			for i := 0; i < mAttrs; i++ {
				if parentMask&(1<<uint(i)) == 0 {
					continue
				}
				if mask&(1<<uint(i)) != 0 {
					keep = append(keep, col)
				}
				col++
			}
			projStart := cfg.Recorder.Start()
			proj, err := parent.Project(keep)
			cfg.Recorder.PhaseEnd(obs.PhaseRollup, projStart)
			if err != nil {
				return err
			}
			projStats[mask] = proj
		}
	}

subsets:
	for size := 1; size <= mAttrs; size++ {
		for _, mask := range masks[size] {
			if !e.lim.checkpoint() {
				break subsets
			}
			subLat, subEval := lat, e
			if size < mAttrs {
				attrs, dims := subsetOf(qis, fullDims, mask)
				var err error
				if subLat, err = lattice.New(dims); err != nil {
					return err
				}
				// Progress denominator: each subset lattice adds its own
				// node count (Run added the full lattice's), so the
				// /progress fraction tracks the whole multi-pass strategy.
				cfg.Recorder.AddLatticeNodes(int64(subLat.Size()))
				subCfg := cfg
				subCfg.QIs = attrs
				subMasker, err := subCfg.validate()
				if err != nil {
					return err
				}
				// One generalized-column cache serves every subset: it is
				// keyed by attribute name and hierarchy level, both
				// independent of the QI subset a node ranges over, so a
				// generalization computed for one subset is reused by every
				// later subset that includes the attribute.
				subEval = newLimitedEvaluator(e.im, subMasker, e.cache, subCfg, e.lim).bind(e.bounds)
				subEval.rollups.seed(subLat.Bottom(), projStats[mask])
			}

			ref := make(map[string]bool)
			refuted[mask] = ref
			tagged := make(map[string]bool)

			for h := 0; h <= subLat.Height(); h++ {
				// Pre-filter the level serially: tagging only marks
				// strictly higher nodes and projection checks read only
				// smaller, already-completed subsets, so the survivors
				// are independent and can be evaluated concurrently.
				nodes := subLat.NodesAtHeight(h)
				var candidates []lattice.Node
				candIdx := make([]int, len(nodes))
				for i, node := range nodes {
					key := node.Key()
					if tagged[key] {
						tagUp(subLat, node, tagged)
						candIdx[i] = -1
						continue
					}
					// Subset pruning: a refuted (size-1)-projection
					// refutes the node.
					if size > 1 && projectionRefuted(mask, node, refuted) {
						if size == mAttrs {
							res.Stats.PrunedBySubsets++
						}
						ref[key] = true
						candIdx[i] = -1
						continue
					}
					candIdx[i] = len(candidates)
					candidates = append(candidates, node)
				}
				outs, err := subEval.evalAll(candidates, &res.Stats)
				if err != nil {
					return err
				}
				for i, node := range nodes {
					if candIdx[i] < 0 {
						continue
					}
					switch o := outs[candIdx[i]]; {
					case o.ok:
						if size == mAttrs {
							res.Minimal = append(res.Minimal, o.minimal(node))
						}
						tagUp(subLat, node, tagged)
					case o.evaluated && (everyFailureRefutes || nodeVerdict(o) == obs.VerdictOverBudget):
						ref[node.Key()] = true
					}
				}
				if e.lim.tripped() {
					break
				}
			}
			res.Stats.SubsetsEvaluated++
		}
	}
	sortMinimal(res.Minimal)
	return nil
}

// subsetOf extracts the attributes and dims selected by mask, keeping
// attribute order.
func subsetOf(qis []string, dims []int, mask uint32) ([]string, []int) {
	var attrs []string
	var sub []int
	for i := range qis {
		if mask&(1<<uint(i)) != 0 {
			attrs = append(attrs, qis[i])
			sub = append(sub, dims[i])
		}
	}
	return attrs, sub
}

// projectionRefuted reports whether any (|S|-1)-subset projection of
// node is refuted.
func projectionRefuted(mask uint32, node lattice.Node, refuted map[uint32]map[string]bool) bool {
	// Positions of set bits, ascending: coordinate j of node belongs to
	// attribute bits[j].
	var bits []uint
	for i := uint(0); i < 32; i++ {
		if mask&(1<<i) != 0 {
			bits = append(bits, i)
		}
	}
	for drop := range bits {
		subMask := mask &^ (1 << bits[drop])
		proj := make(lattice.Node, 0, len(bits)-1)
		for j := range bits {
			if j != drop {
				proj = append(proj, node[j])
			}
		}
		if refuted[subMask][proj.Key()] {
			return true
		}
	}
	return false
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// sortMinimal orders minimal nodes bottom-up for deterministic output.
func sortMinimal(nodes []MinimalNode) {
	sort.Slice(nodes, func(a, b int) bool {
		ha, hb := nodes[a].Node.Height(), nodes[b].Node.Height()
		if ha != hb {
			return ha < hb
		}
		return nodes[a].Node.Key() < nodes[b].Node.Key()
	})
}
