package search

import (
	"sort"

	"psk/internal/lattice"
	"psk/internal/obs"
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
// over the full QI set yields the complete p-k-minimal antichain.
//
// Every pass walks the one lattice on the run's evaluator. A subset's
// lattice is the sublattice above the node that pins each attribute
// outside the subset at its top, and a subset node is judged as the
// grouping it stands for: the node with those attributes at their drop
// level (generalize.Cache.DropLevel), where each holds one value. Where
// the drop level is the top, as for a "*" top, that grouping is the
// pinned node itself, so a subset node shares its statistics and its
// judgement with the full node of the same grouping, and no grouping
// is judged twice.
func incognito(e *evaluator, lat *lattice.Lattice, res *Result) error {
	qis := e.cfg.QIs
	mAttrs := len(qis)
	dims := lat.Dims()
	drop := make([]int, mAttrs)
	for i, attr := range qis {
		level, err := e.cache.DropLevel(attr)
		if err != nil {
			return err
		}
		drop[i] = level
	}

	// refuted[mask] is the set of node keys for the QI subset encoded by
	// mask (bit i = qis[i] present) whose failure proves that every node
	// projecting onto them fails. A subset node's key is its pinned
	// full-lattice node's.
	refuted := make(map[uint32]map[string]bool)
	everyFailureRefutes := e.cfg.MaxSuppress == 0

	// Enumerate masks grouped by popcount.
	masks := make([][]uint32, mAttrs+1)
	for mask := uint32(1); mask < 1<<mAttrs; mask++ {
		pc := popcount(mask)
		masks[pc] = append(masks[pc], mask)
	}

subsets:
	for size := 1; size <= mAttrs; size++ {
		for _, mask := range masks[size] {
			if !e.lim.checkpoint() {
				break subsets
			}
			// lo pins the attributes outside the subset at their top; the
			// subset's lattice is the sublattice above it.
			lo := make(lattice.Node, mAttrs)
			subSize := 1
			for i := range lo {
				if mask&(1<<uint(i)) == 0 {
					lo[i] = dims[i]
				} else {
					subSize *= dims[i] + 1
				}
			}
			if size < mAttrs {
				// Progress denominator: each subset lattice adds its own
				// node count (Run added the full lattice's), so the
				// /progress fraction tracks the whole multi-pass strategy.
				e.rec.AddLatticeNodes(int64(subSize))
			}

			ref := make(map[string]bool)
			refuted[mask] = ref
			tagged := make(map[string]bool)

			for h := lo.Height(); h <= lat.Height(); h++ {
				// Pre-filter the level serially: tagging only marks
				// strictly higher nodes and projection checks read only
				// smaller, already-completed subsets, so the survivors
				// are independent and can be evaluated concurrently.
				nodes := lat.NodesAbove(lo, h)
				var groupings []lattice.Node
				candIdx := make([]int, len(nodes))
				for i, node := range nodes {
					key := node.Key()
					if tagged[key] {
						tagUp(lat, node, tagged)
						candIdx[i] = -1
						continue
					}
					// Subset pruning: a refuted (size-1)-projection
					// refutes the node.
					if size > 1 && projectionRefuted(mask, node, dims, refuted) {
						if size == mAttrs {
							res.Stats.PrunedBySubsets++
						}
						ref[key] = true
						candIdx[i] = -1
						continue
					}
					candIdx[i] = len(groupings)
					groupings = append(groupings, grouping(node, mask, drop))
				}
				outs, _, err := e.eval(groupings, false, &res.Stats)
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
						tagUp(lat, node, tagged)
					case o.evaluated && (everyFailureRefutes || o.class == obs.VerdictOverBudget):
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

// grouping returns the node a subset node is judged as: node with every
// attribute outside mask at its drop level instead of its top.
func grouping(node lattice.Node, mask uint32, drop []int) lattice.Node {
	out := node.Clone()
	for i := range out {
		if mask&(1<<uint(i)) == 0 {
			out[i] = drop[i]
		}
	}
	return out
}

// projectionRefuted reports whether any (|S|-1)-subset projection of
// node is refuted: node with one of mask's attributes pinned at its
// top.
func projectionRefuted(mask uint32, node lattice.Node, dims []int, refuted map[uint32]map[string]bool) bool {
	proj := node.Clone()
	for i := range node {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		proj[i] = dims[i]
		if refuted[mask&^(1<<uint(i))][proj.Key()] {
			return true
		}
		proj[i] = node[i]
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
