package search

import (
	"fmt"
	"sort"
	"strings"

	"psk/internal/hierarchy"
	"psk/internal/table"
)

// GreedyCluster implements a greedy clustering anonymizer in the spirit
// of Campan and Truta's follow-up work on *generating* p-sensitive
// k-anonymous microdata (the ICDE paper only *tests* the property and
// searches full-domain lattices; its future work proposes dedicated
// generation algorithms). Records are grouped one cluster at a time:
//
//  1. Seed a cluster with the first unassigned record.
//  2. While the cluster lacks p distinct values for some confidential
//     attribute, add the unassigned record that supplies a missing
//     value at the smallest distance; once diversity is met, grow with
//     nearest records until the cluster reaches k.
//  3. When no valid new cluster can be formed, disperse the leftovers
//     into their nearest clusters (which can only grow sizes and value
//     sets, so feasibility is preserved).
//
// Output QI cells are recoded to per-cluster range/set labels, exactly
// like Mondrian, so the result is k-anonymous and p-sensitive by
// construction. Compared with full-domain generalization it trades the
// global interpretability of domain-level recoding for much lower
// information loss; compared with Mondrian it enforces p during
// construction rather than rejecting splits afterwards.
type ClusterResult struct {
	// Masked is the recoded microdata.
	Masked *table.Table
	// Clusters is the number of groups formed.
	Clusters int
	// GroupSizes are the cluster sizes in creation order.
	GroupSizes []int
	// Dispersed is how many leftover records were folded into existing
	// clusters after no further valid cluster could be seeded.
	Dispersed int
}

// ClusterConfig parameterizes GreedyCluster.
type ClusterConfig struct {
	// QIs are the quasi-identifiers to recode.
	QIs []string
	// Confidential are the attributes protected by the P constraint.
	Confidential []string
	// K is the minimum cluster size (>= 2).
	K int
	// P is the sensitivity constraint (1 <= P <= K).
	P int
	// Extended optionally adds category-level diversity constraints:
	// for each entry, every cluster must keep at least P distinct
	// labels at every hierarchy level up to MaxLevel of the named
	// confidential attribute (extended p-sensitivity enforced during
	// construction). The attribute must also appear in Confidential.
	Extended []ExtendedConstraint
}

// ExtendedConstraint is one extended-sensitivity requirement for
// clustering.
type ExtendedConstraint struct {
	// Attr names the confidential attribute.
	Attr string
	// Hierarchy is the value generalization hierarchy over Attr.
	Hierarchy hierarchy.Hierarchy
	// MaxLevel is the highest level at which P distinct labels are
	// required (the root is normally exempt).
	MaxLevel int
}

// GreedyCluster partitions the table into clusters satisfying both
// constraints and returns the recoded masked microdata.
func GreedyCluster(t *table.Table, cfg ClusterConfig) (ClusterResult, error) {
	if cfg.K < 2 {
		return ClusterResult{}, fmt.Errorf("search: cluster k must be >= 2, got %d", cfg.K)
	}
	if cfg.P < 1 {
		return ClusterResult{}, fmt.Errorf("search: cluster p must be >= 1, got %d", cfg.P)
	}
	if cfg.P > cfg.K {
		return ClusterResult{}, fmt.Errorf("search: cluster p (%d) must be <= k (%d)", cfg.P, cfg.K)
	}
	if len(cfg.QIs) == 0 {
		return ClusterResult{}, fmt.Errorf("search: cluster needs at least one quasi-identifier")
	}
	if cfg.P >= 2 && len(cfg.Confidential) == 0 {
		return ClusterResult{}, fmt.Errorf("search: cluster p >= 2 requires confidential attributes")
	}
	if t.NumRows() < cfg.K {
		return ClusterResult{}, fmt.Errorf("search: table has %d rows, fewer than k = %d", t.NumRows(), cfg.K)
	}

	qiCols := make([]table.Column, len(cfg.QIs))
	for i, q := range cfg.QIs {
		c, err := t.Column(q)
		if err != nil {
			return ClusterResult{}, err
		}
		qiCols[i] = c
	}
	confCols := make([]table.Column, len(cfg.Confidential))
	for i, s := range cfg.Confidential {
		c, err := t.Column(s)
		if err != nil {
			return ClusterResult{}, err
		}
		confCols[i] = c
	}
	// Feasibility (the paper's Condition 1 applied to clustering).
	for i, cc := range confCols {
		if cfg.P >= 2 && distinctIn(cc, allRows(t.NumRows())) < cfg.P {
			return ClusterResult{}, fmt.Errorf("search: confidential attribute %q has fewer than p = %d distinct values (necessary condition 1)",
				cfg.Confidential[i], cfg.P)
		}
	}

	// Diversity checks: one per confidential attribute plus one per
	// extended (attribute, level) pair. Extended labels are precomputed
	// so cluster growth tests are O(1) per row.
	checks, err := buildDiversityChecks(t, cfg, confCols)
	if err != nil {
		return ClusterResult{}, err
	}

	// Precompute numeric ranges for distance normalization.
	ranges := make([]float64, len(qiCols))
	for i, c := range qiCols {
		if c.Type() == table.Int || c.Type() == table.Float {
			lo, hi := c.Value(0).Float(), c.Value(0).Float()
			for r := 1; r < c.Len(); r++ {
				v := c.Value(r).Float()
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			ranges[i] = hi - lo
		}
	}
	dist := func(a, b int) float64 {
		d := 0.0
		for i, c := range qiCols {
			switch c.Type() {
			case table.Int, table.Float:
				if ranges[i] > 0 {
					diff := c.Value(a).Float() - c.Value(b).Float()
					if diff < 0 {
						diff = -diff
					}
					d += diff / ranges[i]
				}
			default:
				if c.Code(a) != c.Code(b) {
					d++
				}
			}
		}
		return d
	}

	unassigned := make(map[int]struct{}, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		unassigned[r] = struct{}{}
	}
	var clusters [][]int

	for len(unassigned) >= cfg.K {
		seed := lowestKey(unassigned)
		cluster := []int{seed}
		delete(unassigned, seed)
		ok := true
		for !clusterValid(cluster, checks, cfg) || len(cluster) < cfg.K {
			next := pickNext(cluster, unassigned, checks, cfg, dist)
			if next < 0 {
				ok = false
				break
			}
			cluster = append(cluster, next)
			delete(unassigned, next)
		}
		if !ok {
			// Return the partial cluster to the pool and stop seeding.
			for _, r := range cluster {
				unassigned[r] = struct{}{}
			}
			break
		}
		clusters = append(clusters, cluster)
	}

	if len(clusters) == 0 {
		return ClusterResult{}, fmt.Errorf("search: no cluster satisfying k = %d, p = %d could be formed", cfg.K, cfg.P)
	}

	// Disperse leftovers into the nearest cluster (by seed distance).
	dispersed := 0
	for r := range unassigned {
		best, bestD := 0, -1.0
		for ci, cluster := range clusters {
			d := dist(r, cluster[0])
			if bestD < 0 || d < bestD {
				best, bestD = ci, d
			}
		}
		clusters[best] = append(clusters[best], r)
		dispersed++
	}

	masked, sizes, err := recode(t, cfg.QIs, qiCols, clusters)
	if err != nil {
		return ClusterResult{}, err
	}
	sort.Ints(sizes)
	return ClusterResult{Masked: masked, Clusters: len(clusters), GroupSizes: sizes, Dispersed: dispersed}, nil
}

// diversityCheck is one distinctness requirement: a labeling of rows
// whose distinct count within a cluster must reach P.
type diversityCheck struct {
	name  string
	label func(row int) string
}

// buildDiversityChecks assembles the plain per-attribute checks and the
// extended per-(attribute, level) checks.
func buildDiversityChecks(t *table.Table, cfg ClusterConfig, confCols []table.Column) ([]diversityCheck, error) {
	if cfg.P < 2 {
		return nil, nil
	}
	var checks []diversityCheck
	for i, cc := range confCols {
		col := cc
		checks = append(checks, diversityCheck{
			name:  cfg.Confidential[i],
			label: func(row int) string { return col.Value(row).Str() },
		})
	}
	confSet := make(map[string]bool, len(cfg.Confidential))
	for _, c := range cfg.Confidential {
		confSet[c] = true
	}
	for _, ext := range cfg.Extended {
		if ext.Hierarchy == nil {
			return nil, fmt.Errorf("search: extended constraint on %q has nil hierarchy", ext.Attr)
		}
		if !confSet[ext.Attr] {
			return nil, fmt.Errorf("search: extended constraint attribute %q is not confidential", ext.Attr)
		}
		col, err := t.Column(ext.Attr)
		if err != nil {
			return nil, err
		}
		if ext.MaxLevel < 1 || ext.MaxLevel > ext.Hierarchy.Height() {
			return nil, fmt.Errorf("search: extended constraint on %q: MaxLevel %d out of range [1,%d]",
				ext.Attr, ext.MaxLevel, ext.Hierarchy.Height())
		}
		for lvl := 1; lvl <= ext.MaxLevel; lvl++ {
			labels := make([]string, t.NumRows())
			for r := 0; r < t.NumRows(); r++ {
				l, err := ext.Hierarchy.Generalize(col.Value(r).Str(), lvl)
				if err != nil {
					return nil, fmt.Errorf("search: extended constraint on %q: %w", ext.Attr, err)
				}
				labels[r] = l
			}
			// Global feasibility at this level (Condition 1 analogue).
			seen := make(map[string]struct{})
			for _, l := range labels {
				seen[l] = struct{}{}
			}
			if len(seen) < cfg.P {
				return nil, fmt.Errorf("search: %q has only %d distinct level-%d categories; p = %d is infeasible",
					ext.Attr, len(seen), lvl, cfg.P)
			}
			lbl := labels
			checks = append(checks, diversityCheck{
				name:  fmt.Sprintf("%s@%d", ext.Attr, lvl),
				label: func(row int) string { return lbl[row] },
			})
		}
	}
	return checks, nil
}

// clusterValid reports whether the cluster meets the P constraint on
// every diversity check.
func clusterValid(cluster []int, checks []diversityCheck, cfg ClusterConfig) bool {
	if cfg.P < 2 {
		return true
	}
	for _, chk := range checks {
		seen := make(map[string]struct{}, len(cluster))
		for _, r := range cluster {
			seen[chk.label(r)] = struct{}{}
		}
		if len(seen) < cfg.P {
			return false
		}
	}
	return true
}

// pickNext selects the best unassigned record: if some diversity check
// is still short of P distinct labels, only records that add a new
// label for a deficient check are eligible; among eligible records the
// one nearest to the cluster seed wins. Returns -1 when no eligible
// record exists.
func pickNext(cluster []int, unassigned map[int]struct{}, checks []diversityCheck, cfg ClusterConfig, dist func(a, b int) float64) int {
	type deficiency struct {
		chk  diversityCheck
		seen map[string]struct{}
	}
	var deficient []deficiency
	if cfg.P >= 2 {
		for _, chk := range checks {
			seen := make(map[string]struct{}, len(cluster))
			for _, r := range cluster {
				seen[chk.label(r)] = struct{}{}
			}
			if len(seen) < cfg.P {
				deficient = append(deficient, deficiency{chk: chk, seen: seen})
			}
		}
	}
	seed := cluster[0]
	best, bestD := -1, -1.0
	for r := range unassigned {
		if len(deficient) > 0 {
			helps := false
			for _, d := range deficient {
				if _, dup := d.seen[d.chk.label(r)]; !dup {
					helps = true
					break
				}
			}
			if !helps {
				continue
			}
		}
		d := dist(seed, r)
		if best < 0 || d < bestD || (d == bestD && r < best) {
			best, bestD = r, d
		}
	}
	return best
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func lowestKey(set map[int]struct{}) int {
	best := -1
	for k := range set {
		if best < 0 || k < best {
			best = k
		}
	}
	return best
}

// String renders the cluster sizes compactly for reports.
func (r ClusterResult) String() string {
	parts := make([]string, len(r.GroupSizes))
	for i, s := range r.GroupSizes {
		parts[i] = fmt.Sprint(s)
	}
	return fmt.Sprintf("%d clusters (sizes %s, %d dispersed)", r.Clusters, strings.Join(parts, ","), r.Dispersed)
}
