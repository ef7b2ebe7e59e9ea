// Package core implements the paper's primary contribution: the
// p-sensitive k-anonymity privacy model.
//
// It provides the k-anonymity check (Definition 1), the p-sensitive
// k-anonymity check (Definition 2) in both the basic form of Algorithm 1
// and the improved form of Algorithm 2, the frequency-set machinery of
// Definition 4, the two necessary conditions (maxP, maxGroups), and the
// attribute-disclosure measurements behind Table 8. Theorems 1 and 2 of
// the paper are what justify the Bounds type: bounds computed once on
// the initial microdata remain valid for every masked microdata derived
// by generalization and suppression.
//
// Every property is implemented once, as a Policy over group statistics
// (policy.go); the table-based checks below and in the sibling files
// are wrappers that build the statistics and evaluate the matching
// policy or group scan.
package core

import (
	"fmt"

	"psk/internal/table"
)

// IsKAnonymous reports whether every combination of quasi-identifier
// values occurs at least k times (Definition 1). An empty table is
// trivially k-anonymous.
func IsKAnonymous(t *table.Table, qis []string, k int) (bool, error) {
	if k < 1 {
		return false, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if t.NumRows() == 0 {
		return true, nil
	}
	s, err := t.GroupStats(qis, nil, 1)
	if err != nil {
		return false, err
	}
	return firstBelowK(s, k) == -1, nil
}

// MinGroupSize returns the size of the smallest QI-group — the largest k
// for which the table is k-anonymous. An empty table returns 0.
func MinGroupSize(t *table.Table, qis []string) (int, error) {
	if t.NumRows() == 0 {
		return 0, nil
	}
	s, err := t.GroupStats(qis, nil, 1)
	if err != nil {
		return 0, err
	}
	return s.MinGroupSize(), nil
}

// TuplesViolatingK counts the tuples belonging to QI-groups smaller than
// k — the number of tuples suppression would remove (the parenthesized
// counts of Figure 3).
func TuplesViolatingK(t *table.Table, qis []string, k int) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	s, err := t.GroupStats(qis, nil, 1)
	if err != nil {
		return 0, err
	}
	return s.TuplesBelow(k), nil
}
