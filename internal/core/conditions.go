package core

import (
	"fmt"
	"math"

	"psk/internal/table"
)

// MaxP computes the first necessary condition's bound (Condition 1): the
// minimum over confidential attributes of the number of distinct values.
// No masked microdata derived from t can be p-sensitive for p > MaxP.
func MaxP(t *table.Table, confidential []string) (int, error) {
	if len(confidential) == 0 {
		return 0, fmt.Errorf("core: no confidential attributes")
	}
	min := -1
	for _, attr := range confidential {
		s, err := t.DistinctCount(attr)
		if err != nil {
			return 0, err
		}
		if min == -1 || s < min {
			min = s
		}
	}
	return min, nil
}

// MaxGroups computes the second necessary condition's bound (Condition
// 2): the maximum number of distinct QI-value combinations a masked
// microdata derived from t may contain while still admitting p distinct
// confidential values in every group:
//
//	maxGroups = min_{i=1..p-1} floor((n - cf_{p-i}) / i)
//
// For p == 1 the condition is vacuous and MaxGroups returns n (every
// tuple may be its own group). It is the caller's responsibility to
// first establish p <= MaxP; indices past the defined cf range are
// rejected.
func MaxGroups(t *table.Table, confidential []string, p int) (int, error) {
	if p < 1 {
		return 0, fmt.Errorf("core: p must be >= 1, got %d", p)
	}
	n := t.NumRows()
	if p == 1 {
		return n, nil
	}
	totals, err := frequencyTotals(t, confidential)
	if err != nil {
		return 0, err
	}
	maxP, maxGroups := conditions(totals, n, p)
	if p-1 > maxP {
		return 0, fmt.Errorf("core: p = %d exceeds the defined cumulative frequency range (maxP = %d)", p, maxP)
	}
	return maxGroups, nil
}

// frequencyTotals holds each confidential attribute's FrequencySet as a
// histogram: one entry per distinct value, its count, coded by rank.
// The conditions read counts only.
func frequencyTotals(t *table.Table, confidential []string) ([]table.CodeHist, error) {
	if len(confidential) == 0 {
		return nil, fmt.Errorf("core: no confidential attributes")
	}
	totals := make([]table.CodeHist, len(confidential))
	for a, attr := range confidential {
		f, err := FrequencySet(t, attr)
		if err != nil {
			return nil, err
		}
		h := make(table.CodeHist, len(f))
		for i, c := range f {
			h[i] = table.CodeCount{Code: i, Count: c}
		}
		totals[a] = h
	}
	return totals, nil
}

// conditions is the one evaluation of Conditions 1 and 2. totals holds
// each confidential attribute's value counts, one entry per distinct
// value in any order, over n rows. maxP is the least number of distinct
// values. maxGroups is Condition 2's bound for p, defined only when
// p-1 <= maxP, where every cf_{p-i} exists (p == 1 gives n):
//
//	maxGroups = min_{i=1..p-1} floor((n - cf_{p-i}) / i)
//
// cf_j is the largest sum of j counts of one attribute, and the floor
// falls as cf_j grows, so the bound is the least of each attribute's own
// bound over its j largest counts. Those are read off in runs of equal
// counts, largest first, one pass over the attribute per run: the cost
// is O(p * distinct values), with no sort and no allocation.
func conditions(totals []table.CodeHist, n, p int) (maxP, maxGroups int) {
	maxP = math.MaxInt
	for _, h := range totals {
		maxP = min(maxP, len(h))
	}
	maxGroups = n
	if p-1 > maxP {
		return maxP, 0
	}
	for _, h := range totals {
		// j counts taken so far, summing to sum; the next run is the
		// largest count below prev.
		j, sum, prev := 0, 0, math.MaxInt
		for j < p-1 {
			next, mult := 0, 0
			for _, e := range h {
				switch {
				case e.Count >= prev:
				case e.Count > next:
					next, mult = e.Count, 1
				case e.Count == next:
					mult++
				}
			}
			if next == 0 {
				break // no count is left that could lower the bound
			}
			for ; mult > 0 && j < p-1; mult-- {
				j++
				sum += next
				maxGroups = min(maxGroups, (n-sum)/(p-j))
			}
			prev = next
		}
	}
	return maxP, max(maxGroups, 0)
}

// Bounds packages the two necessary-condition values. Theorems 1 and 2
// prove that bounds computed on the initial microdata remain upper
// bounds for every masked microdata derived from it by full-domain
// generalization followed by suppression, so a search algorithm computes
// them once and reuses them at every lattice node.
type Bounds struct {
	// MaxP is Condition 1's bound: the largest feasible p.
	MaxP int
	// MaxGroups is Condition 2's bound for the p the bounds were
	// computed with: the largest admissible number of QI-groups.
	MaxGroups int
	// P is the sensitivity level MaxGroups was computed for.
	P int
}

// ComputeBounds evaluates both necessary conditions on the (initial)
// microdata for a target p. If p exceeds MaxP, the returned bounds have
// Feasible() == false and MaxGroups is 0.
func ComputeBounds(t *table.Table, confidential []string, p int) (Bounds, error) {
	totals, err := frequencyTotals(t, confidential)
	if err != nil {
		return Bounds{}, err
	}
	return BoundsFromTotals(totals, t.NumRows(), p)
}

// BoundsFromStats computes the Theorem 1–2 bounds from group statistics
// instead of a table: the confidential histograms carry exactly the
// per-value counts MaxP and MaxGroups need, summed by Totals. The result
// matches ComputeBounds on the table the statistics describe (zero-size
// tombstone groups carry empty histograms and so contribute nothing).
func BoundsFromStats(s *table.GroupStats, p int) (Bounds, error) {
	if s == nil || s.NumConf == 0 {
		return Bounds{}, fmt.Errorf("core: no confidential attributes")
	}
	return BoundsFromTotals(s.Totals(), s.NumRows, p)
}

// BoundsFromTotals computes the Theorem 1–2 bounds for p from each
// confidential attribute's value counts over n rows — a whole-table
// histogram per attribute, as GroupStats.Totals sums it — so a
// streaming session that keeps the histograms up to date refreshes its
// bounds without reading its group statistics. It allocates nothing.
func BoundsFromTotals(totals []table.CodeHist, n, p int) (Bounds, error) {
	if len(totals) == 0 {
		return Bounds{}, fmt.Errorf("core: no confidential attributes")
	}
	if p < 1 {
		return Bounds{}, fmt.Errorf("core: p must be >= 1, got %d", p)
	}
	maxP, maxGroups := conditions(totals, n, p)
	b := Bounds{MaxP: maxP, P: p}
	if p <= maxP {
		b.MaxGroups = maxGroups
	}
	return b, nil
}

// Feasible reports whether Condition 1 admits the target p at all.
func (b Bounds) Feasible() bool { return b.P <= b.MaxP }
