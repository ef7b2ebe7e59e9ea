package loss

import (
	"fmt"
	"sort"

	"psk/internal/lattice"
	"psk/internal/table"
)

// This file is the statistics-native side of the package: every metric
// that Measure derives by scanning the released table is recomputed
// here from post-suppression group statistics (per-group sizes plus the
// QI codes of each group), so scoring a lattice node costs O(groups)
// instead of O(rows) and no node has to be materialized just to be
// scored. The table-based functions in metrics.go remain the
// differential oracles; the tests pin the two paths byte-identical
// (integers exactly, floats bit-for-bit, since both sides sum the same
// terms in the same order).

// Baseline memoizes the per-QI Shannon entropies of the *initial*
// microdata, which EntropyLoss would otherwise recompute for every
// scored node (O(rows·QIs) per node). Build it once per search with
// BaselineFromStats; it is immutable afterwards and safe to share.
type Baseline struct {
	entropies []float64
}

// BaselineFromStats records the entropy of every QI of the initial
// microdata from its base statistics: the group statistics of the
// lattice bottom before suppression, whose key codes are the source
// columns' own. A QI's value counts are then the group sizes summed per
// key code, so no row is read. The QI order is the statistics' key
// order, which must match the key order of the statistics later
// measured against the baseline.
func BaselineFromStats(base *table.GroupStats) (*Baseline, error) {
	if base == nil {
		return nil, fmt.Errorf("loss: nil base statistics")
	}
	b := &Baseline{entropies: make([]float64, base.NumQI)}
	for i := range b.entropies {
		b.entropies[i] = marginalEntropy(base, i)
	}
	return b, nil
}

// marginalEntropy is the Shannon entropy of key column i over the
// groups' rows: the group sizes summed per key code, sorted descending
// (the order ValueCounts reports, so the float sum is bit-identical to
// the table path's columnEntropy).
func marginalEntropy(s *table.GroupStats, i int) float64 {
	marginal := make(map[int]int)
	for g := range s.Groups {
		if sz := s.Groups[g].Size; sz > 0 {
			marginal[s.Groups[g].Codes[i]] += sz
		}
	}
	counts := make([]int, 0, len(marginal))
	for _, c := range marginal {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	return entropyOfCounts(counts, s.NumRows)
}

// DiscernibilityStats is Discernibility from post-suppression group
// statistics: every released tuple is charged its group size, every
// suppressed tuple the original table size n. Group code vectors and
// released values are in bijection (generalized columns intern one code
// per distinct label), so the group-size multiset here equals the
// oracle's GroupBy partition and the integer sum is identical.
func DiscernibilityStats(s *table.GroupStats, n int) (int, error) {
	if n < s.NumRows {
		return 0, fmt.Errorf("loss: original size %d smaller than released %d", n, s.NumRows)
	}
	dm := 0
	for i := range s.Groups {
		sz := s.Groups[i].Size
		dm += sz * sz
	}
	dm += (n - s.NumRows) * n
	return dm, nil
}

// AvgGroupRatioStats is AvgGroupRatio from post-suppression group
// statistics: C_AVG = (released / groups) / k.
func AvgGroupRatioStats(s *table.GroupStats, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("loss: k must be >= 1, got %d", k)
	}
	if s.NumRows == 0 {
		return 0, nil
	}
	return float64(s.NumRows) / float64(s.NumGroups()) / float64(k), nil
}

// EntropyLossStats is EntropyLoss from post-suppression group
// statistics against a memoized Baseline: for each QI the masked
// entropy comes from the marginal value counts over the groups' key
// codes and is subtracted from the baseline entropy.
func EntropyLossStats(s *table.GroupStats, base *Baseline) (float64, error) {
	if base == nil {
		return 0, fmt.Errorf("loss: nil baseline")
	}
	if s.NumQI != len(base.entropies) {
		return 0, fmt.Errorf("loss: stats carry %d QI key columns, baseline has %d", s.NumQI, len(base.entropies))
	}
	total := 0.0
	for i, h := range base.entropies {
		total += h - marginalEntropy(s, i)
	}
	return total, nil
}

// StatsInput names the arguments of a statistics-native measurement:
// Stats are the post-suppression group statistics of the release at
// Node, Rows the original (pre-suppression) row count, Baseline the
// per-search entropy memo of the initial microdata.
type StatsInput struct {
	Stats    *table.GroupStats
	Rows     int
	Baseline *Baseline
	Node     lattice.Node
	Lattice  *lattice.Lattice
	K        int
}

// MeasureStats computes the full metric report from group statistics
// alone — no masked table. It returns exactly what Measure returns for
// the materialized release the statistics describe: the integer metrics
// match exactly and the float metrics bit-for-bit (both paths run the
// same expressions over the same operands in the same order).
func MeasureStats(in StatsInput) (Report, error) {
	heights := in.Lattice.Dims()
	rep := Report{Node: in.Node.Clone(), HeightRatio: HeightRatio(in.Node, in.Lattice)}
	kept := in.Stats.NumRows
	var err error
	if rep.Precision, err = Precision(in.Node, heights, in.Rows, kept); err != nil {
		return Report{}, err
	}
	if rep.Discernibility, err = DiscernibilityStats(in.Stats, in.Rows); err != nil {
		return Report{}, err
	}
	if rep.AvgGroupRatio, err = AvgGroupRatioStats(in.Stats, in.K); err != nil {
		return Report{}, err
	}
	if rep.SuppressionRatio, err = SuppressionRatio(in.Rows, kept); err != nil {
		return Report{}, err
	}
	if rep.EntropyLossBits, err = EntropyLossStats(in.Stats, in.Baseline); err != nil {
		return Report{}, err
	}
	return rep, nil
}
