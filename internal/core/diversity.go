package core

import (
	"fmt"
	"math"

	"psk/internal/table"
)

// This file exposes the two follow-on privacy models most often
// compared against p-sensitive k-anonymity in the literature it
// spawned: l-diversity (Machanavajjhala et al. 2006) and t-closeness
// (Li et al. 2007). They are not part of the paper itself but give the
// library's users — and the benchmark harness — reference points for
// how the models relate: distinct l-diversity with l = p is exactly
// p-sensitivity for a single confidential attribute. Each function is a
// thin wrapper over the matching policy or group scan in policy.go.

// IsDistinctLDiverse reports whether every QI-group contains at least l
// distinct values of the confidential attribute. For one confidential
// attribute this coincides with p-sensitivity (p = l) without the
// k-anonymity side condition.
func IsDistinctLDiverse(t *table.Table, qis []string, confidential string, l int) (bool, error) {
	if l < 1 {
		return false, fmt.Errorf("core: l must be >= 1, got %d", l)
	}
	v, err := NewStatsView(t, qis, []string{confidential}, 1)
	if err != nil {
		return false, err
	}
	res, err := DistinctLDiversityPolicy{Attr: confidential, L: l}.Evaluate(v)
	return res.Satisfied, err
}

// IsEntropyLDiverse reports whether every QI-group's confidential value
// distribution has entropy at least log(l).
func IsEntropyLDiverse(t *table.Table, qis []string, confidential string, l int) (bool, error) {
	if l < 1 {
		return false, fmt.Errorf("core: l must be >= 1, got %d", l)
	}
	v, err := NewStatsView(t, qis, []string{confidential}, 1)
	if err != nil {
		return false, err
	}
	res, err := EntropyLDiversityPolicy{Attr: confidential, L: l}.Evaluate(v)
	return res.Satisfied, err
}

// TCloseness computes the maximum over QI-groups of the variational
// distance (half L1, the equal-distance EMD) between the group's
// confidential value distribution and the whole-table distribution. A
// table is t-close when the returned value is <= t.
func TCloseness(t *table.Table, qis []string, confidential string) (float64, error) {
	s, err := t.GroupStats(qis, []string{confidential}, 1)
	if err != nil {
		return 0, err
	}
	worst, _ := tclosenessScan(s, 0, math.Inf(1))
	return worst, nil
}

// CheckPAlpha tests (p, alpha)-sensitive k-anonymity, the frequency-
// bounded refinement of p-sensitivity from the follow-on literature:
// in addition to k-anonymity and p distinct values per (group,
// confidential attribute) pair, the relative frequency of the most
// common confidential value within each group must not exceed alpha.
// It subsumes the plain property (alpha = 1) and rules out groups like
// {99 x Cancer, 1 x Flu} that p-sensitivity alone admits.
func CheckPAlpha(t *table.Table, qis, confidential []string, p, k int, alpha float64) (bool, error) {
	if err := validatePK(p, k); err != nil {
		return false, err
	}
	if alpha <= 0 || alpha > 1 {
		return false, fmt.Errorf("core: alpha must be in (0, 1], got %g", alpha)
	}
	if len(confidential) == 0 {
		return false, fmt.Errorf("core: no confidential attributes")
	}
	s, err := t.GroupStats(qis, confidential, 1)
	if err != nil {
		return false, err
	}
	res, err := PAlphaPolicy{P: p, K: k, Alpha: alpha}.Evaluate(StatsView{Stats: s})
	return res.Satisfied, err
}
