package core

import (
	"fmt"

	"psk/internal/table"
)

// This file is the incremental half of the verdict layer. Every
// built-in policy except t-closeness is group-local: its verdict over a
// table is the conjunction of a per-group predicate, so when only a few
// groups changed since a satisfied verdict, re-verdicting those groups
// re-verdicts the table. groupLocal decides that property per policy,
// recheck is the subset scan, and RecheckGroups is the dispatch the
// streaming session calls — fast path when the policy admits it, full
// Evaluate when it does not (DESIGN.md §14).
//
// The fast path is only sound under the caller's premise that every
// group outside the subset satisfied this same policy before the delta
// and was not touched by it. The subset scan reuses Evaluate itself
// (over a view holding just the selected groups), so the per-group
// loops cannot drift from the full-scan ones; because the subset is
// presented in ascending group order and — under the premise — every
// violating group is in it, the Result is identical to a full
// Evaluate's, first-violating group and all.

// RecheckGroups re-verdicts statistics of which only the given groups
// (ascending indices into v.Stats.Groups) changed since a satisfied
// verdict of p. It returns the verdict, in the full view's terms, and
// whether the O(changed-groups) fast path was taken (false means the
// policy required a full scan).
func RecheckGroups(p Policy, v StatsView, groups []int) (Result, bool, error) {
	res, err := recheck(p, v, groups)
	return res, groupLocal(p), err
}

// groupLocal reports whether recheck on a subset is equivalent to
// Evaluate when every group outside the subset is known to satisfy p.
// t-closeness is not local: it compares each group to the table-wide
// distribution, which any change anywhere shifts; nor is any policy
// type this package does not know. A conjunction is local so the
// composite takes the fast path whenever any member can (recheck
// evaluates its non-local members fully); the bounds and telemetry
// wrappers ask their inner policy, as Observe walks them.
func groupLocal(p Policy) bool {
	switch t := p.(type) {
	case KAnonymityPolicy, PSensitivityPolicy, PSensitiveKAnonymityPolicy,
		DistinctLDiversityPolicy, EntropyLDiversityPolicy, RecursiveLDiversityPolicy,
		PAlphaPolicy, ExtendedPolicy, conjunction:
		return true
	case boundedPolicy:
		return groupLocal(t.inner)
	case observedPolicy:
		return groupLocal(t.inner)
	default:
		return false
	}
}

// recheck re-verdicts the selected groups of a group-local policy and
// evaluates any other policy in full. A conjunction rechecks member by
// member, preserving first-failure-wins order; boundedPolicy re-applies
// the Theorem 1–2 rejection filters first — they are O(1) and O(groups)
// respectively, and Condition 2 depends on the total group count, which
// deltas move; observedPolicy times the recheck under the same
// per-policy key as full evaluations.
func recheck(p Policy, v StatsView, groups []int) (Result, error) {
	if !groupLocal(p) {
		return p.Evaluate(v)
	}
	switch t := p.(type) {
	case conjunction:
		for _, member := range t {
			res, err := recheck(member, v, groups)
			if err != nil {
				return Result{}, err
			}
			if !res.Satisfied {
				return res, nil
			}
		}
		return satisfied(v), nil
	case boundedPolicy:
		res := Result{MaxP: t.bounds.MaxP, MaxGroups: t.bounds.MaxGroups, Group: -1, Attr: -1}
		if t.bounds.P > t.bounds.MaxP {
			res.Reason = FailedCondition1
			return res, nil
		}
		res.Groups = v.Stats.NumGroups()
		if t.bounds.P >= 2 && res.Groups > t.bounds.MaxGroups {
			res.Reason = FailedCondition2
			return res, nil
		}
		out, err := recheck(t.inner, v, groups)
		if err != nil {
			return Result{}, err
		}
		out.MaxP, out.MaxGroups = t.bounds.MaxP, t.bounds.MaxGroups
		return out, nil
	case observedPolicy:
		start := t.rec.Start()
		res, err := recheck(t.inner, v, groups)
		t.rec.PolicyEval(t.name, start, err == nil && res.Satisfied)
		return res, err
	}
	return localCheck(p, v, groups)
}

// localCheck runs a group-local policy's own Evaluate over a view
// restricted to the selected groups, then restores full-view indexing
// on the Result. Reusing Evaluate keeps the subset path pinned to the
// full-scan loops — including multi-gate orders like "k-anonymity
// first, then distinctness" — by construction.
func localCheck(p Policy, v StatsView, groups []int) (Result, error) {
	sub := table.GroupStats{
		NumRows: v.Stats.NumRows,
		NumQI:   v.Stats.NumQI,
		NumConf: v.Stats.NumConf,
		Groups:  make([]table.GroupStat, len(groups)),
	}
	for i, g := range groups {
		if g < 0 || g >= len(v.Stats.Groups) {
			return Result{}, fmt.Errorf("core: recheck: group index %d outside 0..%d", g, len(v.Stats.Groups)-1)
		}
		sub.Groups[i] = v.Stats.Groups[g]
	}
	res, err := p.Evaluate(StatsView{Stats: &sub, Conf: v.Conf})
	if err != nil {
		return Result{}, err
	}
	res.Groups = v.Stats.NumGroups()
	if res.Group >= 0 {
		res.Group = groups[res.Group]
	}
	return res, nil
}
