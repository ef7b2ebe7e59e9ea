package search

import (
	"fmt"
	"sort"
	"strings"

	"psk/internal/table"
)

// Mondrian implements greedy multidimensional partitioning (LeFevre et
// al. 2006) extended with a p-sensitivity side constraint. It is the
// alternative-paradigm baseline to full-domain generalization: instead
// of recoding whole attribute domains, it recursively splits the table
// at the median of one quasi-identifier, accepting a split only when
// both halves still satisfy k-anonymity and, when P >= 2, contain at
// least P distinct values of every confidential attribute.
//
// The output recodes each QI cell to the value range of its partition
// ("[20-39]", "{F,M}"), so the result is k-anonymous by construction
// (every partition is a QI-group of size >= k) and p-sensitive when the
// constraint was enabled.
type MondrianResult struct {
	// Masked is the recoded microdata.
	Masked *table.Table
	// Partitions is the number of leaf partitions (QI-groups).
	Partitions int
	// GroupSizes are the leaf sizes, in creation order.
	GroupSizes []int
}

// MondrianConfig parameterizes a Mondrian run. Hierarchies are not
// needed: ranges are derived from the data.
type MondrianConfig struct {
	// QIs are the quasi-identifier attributes considered for splitting.
	QIs []string
	// Confidential are the attributes protected by the P constraint.
	Confidential []string
	// K is the minimum partition size (>= 2).
	K int
	// P is the sensitivity constraint (1 = none; requires Confidential
	// when >= 2).
	P int
}

// Mondrian partitions the table and returns the recoded masked
// microdata. The input must be non-empty and satisfy the feasibility
// requirement n >= K (and, when P >= 2, have at least P distinct values
// per confidential attribute overall).
func Mondrian(t *table.Table, cfg MondrianConfig) (MondrianResult, error) {
	if cfg.K < 2 {
		return MondrianResult{}, fmt.Errorf("search: mondrian k must be >= 2, got %d", cfg.K)
	}
	if cfg.P < 1 {
		return MondrianResult{}, fmt.Errorf("search: mondrian p must be >= 1, got %d", cfg.P)
	}
	if cfg.P > cfg.K {
		return MondrianResult{}, fmt.Errorf("search: mondrian p (%d) must be <= k (%d)", cfg.P, cfg.K)
	}
	if cfg.P >= 2 && len(cfg.Confidential) == 0 {
		return MondrianResult{}, fmt.Errorf("search: mondrian p >= 2 requires confidential attributes")
	}
	if len(cfg.QIs) == 0 {
		return MondrianResult{}, fmt.Errorf("search: mondrian needs at least one quasi-identifier")
	}
	if t.NumRows() < cfg.K {
		return MondrianResult{}, fmt.Errorf("search: table has %d rows, fewer than k = %d", t.NumRows(), cfg.K)
	}
	cols := make([]table.Column, len(cfg.QIs))
	for i, q := range cfg.QIs {
		c, err := t.Column(q)
		if err != nil {
			return MondrianResult{}, err
		}
		cols[i] = c
	}
	confCols := make([]table.Column, len(cfg.Confidential))
	for i, s := range cfg.Confidential {
		c, err := t.Column(s)
		if err != nil {
			return MondrianResult{}, err
		}
		confCols[i] = c
	}

	all := make([]int, t.NumRows())
	for i := range all {
		all[i] = i
	}
	var leaves [][]int
	partition(t, cols, confCols, cfg, all, &leaves)
	masked, sizes, err := recode(t, cfg.QIs, cols, leaves)
	if err != nil {
		return MondrianResult{}, err
	}
	return MondrianResult{Masked: masked, Partitions: len(leaves), GroupSizes: sizes}, nil
}

// recode relabels every QI cell (qis, read through cols) with its
// group's value range (rangeLabel) and returns the recoded table and
// the group sizes in group order. The groups partition t's rows: they
// are Mondrian's leaves and GreedyCluster's clusters.
func recode(t *table.Table, qis []string, cols []table.Column, groups [][]int) (*table.Table, []int, error) {
	labels := make([][]string, len(qis)) // per QI, per row
	for i := range labels {
		labels[i] = make([]string, t.NumRows())
	}
	sizes := make([]int, 0, len(groups))
	for _, g := range groups {
		sizes = append(sizes, len(g))
		for qi, col := range cols {
			label := rangeLabel(col, g)
			for _, r := range g {
				labels[qi][r] = label
			}
		}
	}
	masked := t
	var err error
	for qi, attr := range qis {
		row := 0
		lbl := labels[qi]
		masked, err = masked.MapColumn(attr, func(table.Value) (string, error) {
			s := lbl[row]
			row++
			return s, nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return masked, sizes, nil
}

// partition recursively splits rows; leaves are appended to out.
func partition(t *table.Table, cols, confCols []table.Column, cfg MondrianConfig, rows []int, out *[][]int) {
	// Choose the dimension with the most distinct values among rows.
	bestDim, bestDistinct := -1, 1
	for d, col := range cols {
		seen := make(map[int]struct{}, len(rows))
		for _, r := range rows {
			seen[col.Code(r)] = struct{}{}
		}
		if len(seen) > bestDistinct {
			bestDim, bestDistinct = d, len(seen)
		}
	}
	if bestDim >= 0 {
		if lhs, rhs, ok := trySplit(cols[bestDim], confCols, cfg, rows); ok {
			partition(t, cols, confCols, cfg, lhs, out)
			partition(t, cols, confCols, cfg, rhs, out)
			return
		}
		// The widest dimension would not split; try the others.
		for d := range cols {
			if d == bestDim {
				continue
			}
			if lhs, rhs, ok := trySplit(cols[d], confCols, cfg, rows); ok {
				partition(t, cols, confCols, cfg, lhs, out)
				partition(t, cols, confCols, cfg, rhs, out)
				return
			}
		}
	}
	*out = append(*out, rows)
}

// trySplit splits rows at the median of the column and validates both
// halves against the k and p constraints.
func trySplit(col table.Column, confCols []table.Column, cfg MondrianConfig, rows []int) (lhs, rhs []int, ok bool) {
	sorted := make([]int, len(rows))
	copy(sorted, rows)
	sort.SliceStable(sorted, func(a, b int) bool {
		return col.Value(sorted[a]).Compare(col.Value(sorted[b])) < 0
	})
	// Strict median split: left takes values <= median value, but we cut
	// at the value boundary nearest the middle so equal values stay
	// together (strict Mondrian).
	mid := len(sorted) / 2
	cut := mid
	// Move the cut forward past equal values.
	for cut < len(sorted) && cut > 0 && col.Value(sorted[cut]).Equal(col.Value(sorted[cut-1])) {
		cut++
	}
	if cut == len(sorted) {
		// Try moving backwards instead.
		cut = mid
		for cut > 0 && col.Value(sorted[cut]).Equal(col.Value(sorted[cut-1])) {
			cut--
		}
		if cut == 0 {
			return nil, nil, false
		}
	}
	lhs, rhs = sorted[:cut], sorted[cut:]
	if len(lhs) < cfg.K || len(rhs) < cfg.K {
		return nil, nil, false
	}
	if cfg.P >= 2 {
		for _, cc := range confCols {
			if distinctIn(cc, lhs) < cfg.P || distinctIn(cc, rhs) < cfg.P {
				return nil, nil, false
			}
		}
	}
	return lhs, rhs, true
}

func distinctIn(col table.Column, rows []int) int {
	seen := make(map[int]struct{}, len(rows))
	for _, r := range rows {
		seen[col.Code(r)] = struct{}{}
	}
	return len(seen)
}

// rangeLabel renders the QI range of a partition: "[lo-hi]" for numeric
// columns, "{v1,v2}" for categorical ones, or the single value when the
// partition is constant in that attribute.
func rangeLabel(col table.Column, rows []int) string {
	switch col.Type() {
	case table.Int, table.Float:
		lo, hi := col.Value(rows[0]), col.Value(rows[0])
		for _, r := range rows[1:] {
			v := col.Value(r)
			if v.Compare(lo) < 0 {
				lo = v
			}
			if v.Compare(hi) > 0 {
				hi = v
			}
		}
		if lo.Equal(hi) {
			return lo.Str()
		}
		return "[" + lo.Str() + "-" + hi.Str() + "]"
	default:
		seen := make(map[string]struct{})
		var vals []string
		for _, r := range rows {
			s := col.Value(r).Str()
			if _, ok := seen[s]; !ok {
				seen[s] = struct{}{}
				vals = append(vals, s)
			}
		}
		if len(vals) == 1 {
			return vals[0]
		}
		sort.Strings(vals)
		return "{" + strings.Join(vals, ",") + "}"
	}
}
