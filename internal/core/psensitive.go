package core

import (
	"fmt"

	"psk/internal/table"
)

// Reason explains why a privacy check failed, and in particular which
// of Algorithm 2's gates rejected the table.
type Reason int

// Check outcomes, ordered by how early Algorithm 2 detects them; the
// policy layer appends the outcomes of the follow-on properties.
const (
	// Satisfied: the table has the property.
	Satisfied Reason = iota
	// FailedCondition1: p exceeds the minimum distinct-value count of
	// the confidential attributes (Condition 1).
	FailedCondition1
	// FailedCondition2: the table has more QI-groups than maxGroups
	// admits (Condition 2).
	FailedCondition2
	// NotKAnonymous: some QI-group is smaller than k.
	NotKAnonymous
	// NotPSensitive: some QI-group has fewer than p distinct values for
	// some confidential attribute.
	NotPSensitive
	// NotLDiverse: some QI-group fails an l-diversity variant's
	// threshold (distinct count, entropy, or recursive ratio).
	NotLDiverse
	// NotTClose: some QI-group's confidential distribution is farther
	// than t from the table-wide distribution.
	NotTClose
	// NotAlphaBounded: some confidential value exceeds the alpha
	// frequency bound inside a QI-group.
	NotAlphaBounded
	// NotExtended: some QI-group has fewer than p distinct categories at
	// some level of the confidential value hierarchy.
	NotExtended
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case Satisfied:
		return "satisfied"
	case FailedCondition1:
		return "failed necessary condition 1 (p > maxP)"
	case FailedCondition2:
		return "failed necessary condition 2 (too many QI-groups)"
	case NotKAnonymous:
		return "not k-anonymous"
	case NotPSensitive:
		return "not p-sensitive"
	case NotLDiverse:
		return "not l-diverse"
	case NotTClose:
		return "not t-close"
	case NotAlphaBounded:
		return "exceeds the alpha frequency bound"
	case NotExtended:
		return "not extended p-sensitive"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Result reports the outcome of a privacy check together with the
// quantities computed on the way. Every policy reports through this one
// verdict type.
type Result struct {
	// Satisfied is true when the table has the property.
	Satisfied bool
	// Reason identifies the first gate that failed (or Satisfied).
	Reason Reason
	// MaxP and MaxGroups are the necessary-condition bounds that were in
	// force (zero when the check skipped them).
	MaxP      int
	MaxGroups int
	// Groups is the number of QI-groups observed (when counted).
	Groups int
	// Group is the index (first-appearance order) of the first QI-group
	// that violated the property, or -1 when no single group is
	// implicated (satisfied, or a necessary-condition filter rejected
	// the whole table).
	Group int
	// Attr is the histogram index of the confidential attribute
	// implicated in the violation — a position in the confidential list
	// the statistics were built with — or -1 when none is.
	Attr int
}

func validatePK(p, k int) error {
	if k < 2 {
		return fmt.Errorf("core: k must be >= 2, got %d", k)
	}
	if p < 1 {
		return fmt.Errorf("core: p must be >= 1, got %d", p)
	}
	if p > k {
		return fmt.Errorf("core: p (%d) must be <= k (%d)", p, k)
	}
	return nil
}

// CheckBasic is the paper's Algorithm 1: test k-anonymity, then require
// at least p distinct values per (QI-group, confidential attribute)
// pair, stopping at the first violation. It is a thin wrapper over
// PSensitiveKAnonymityPolicy.
func CheckBasic(t *table.Table, qis, confidential []string, p, k int) (bool, error) {
	if err := validatePK(p, k); err != nil {
		return false, err
	}
	if len(confidential) == 0 {
		return false, fmt.Errorf("core: no confidential attributes")
	}
	s, err := t.GroupStats(qis, confidential, 1)
	if err != nil {
		return false, err
	}
	res, err := PSensitiveKAnonymityPolicy{P: p, K: k}.Evaluate(StatsView{Stats: s})
	return res.Satisfied, err
}

// Check is the paper's Algorithm 2: evaluate the two necessary
// conditions as cheap rejection filters before the detailed group scan.
// Bounds are computed from the table itself; use CheckWithBounds to
// reuse bounds precomputed on the initial microdata (Theorems 1 and 2).
func Check(t *table.Table, qis, confidential []string, p, k int) (Result, error) {
	bounds, err := ComputeBounds(t, confidential, p)
	if err != nil {
		return Result{}, err
	}
	return CheckWithBounds(t, qis, confidential, p, k, bounds)
}

// CheckWithBounds is Algorithm 2 with externally supplied bounds. The
// typical caller computed them once on the initial microdata; Theorems 1
// and 2 guarantee they remain valid for every masked microdata derived
// by generalization and suppression. It is a thin wrapper over
// PSensitiveKAnonymityPolicy wrapped with WithBounds.
func CheckWithBounds(t *table.Table, qis, confidential []string, p, k int, bounds Bounds) (Result, error) {
	if err := validatePK(p, k); err != nil {
		return Result{}, err
	}
	s, err := t.GroupStats(qis, confidential, 1)
	if err != nil {
		return Result{}, err
	}
	// The conditions gate on the p being checked, which prevails over
	// whatever p the bounds were computed for.
	bounds.P = p
	return WithBounds(PSensitiveKAnonymityPolicy{P: p, K: k}, bounds).Evaluate(StatsView{Stats: s})
}

// Sensitivity computes the largest p for which the table (with its
// current QI-grouping) is p-sensitive: the minimum over QI-groups and
// confidential attributes of the number of distinct values. An empty
// table has sensitivity 0.
func Sensitivity(t *table.Table, qis, confidential []string) (int, error) {
	if len(confidential) == 0 {
		return 0, fmt.Errorf("core: no confidential attributes")
	}
	if t.NumRows() == 0 {
		return 0, nil
	}
	s, err := t.GroupStats(qis, confidential, 1)
	if err != nil {
		return 0, err
	}
	min := -1
	for i := range s.Groups {
		for _, h := range s.Groups[i].Hists {
			if d := h.Distinct(); min == -1 || d < min {
				min = d
			}
		}
	}
	return min, nil
}

// AttributeDisclosures counts the (QI-group, confidential attribute)
// pairs with fewer than p distinct values — the "number of attribute
// disclosures" reported in Table 8 (there with p = 2: groups in which a
// confidential attribute is constant, so an intruder who links any
// member learns that attribute's value with certainty).
func AttributeDisclosures(t *table.Table, qis, confidential []string, p int) (int, error) {
	if p < 1 {
		return 0, fmt.Errorf("core: p must be >= 1, got %d", p)
	}
	if len(confidential) == 0 {
		return 0, fmt.Errorf("core: no confidential attributes")
	}
	s, err := t.GroupStats(qis, confidential, 1)
	if err != nil {
		return 0, err
	}
	count := 0
	for i := range s.Groups {
		for _, h := range s.Groups[i].Hists {
			if h.Distinct() < p {
				count++
			}
		}
	}
	return count, nil
}
