package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"psk/internal/table"
)

// This file is the package's verdict layer. Every privacy property the
// library knows — k-anonymity, p-sensitivity, the l-diversity variants,
// t-closeness, (p, alpha)-sensitivity, extended p-sensitivity — depends
// only on per-QI-group aggregates: group sizes and confidential code
// histograms. Policy makes that uniformity explicit: a policy is a
// predicate over table.GroupStats, every property is one Policy
// implementation, and conjunction (All) plus the Theorem 1–2 rejection
// filters (WithBounds) compose them. The table-based Check* functions
// elsewhere in the package are thin wrappers that build statistics and
// evaluate the matching policy; the group loops below are the only
// verdict implementations in the package.
//
// All built-in policies are monotone under group merging: if masked
// microdata satisfies the policy, so does every further generalization
// of it (merging QI-groups never lowers a group size, a distinct count,
// an entropy, a per-level category count, and never raises a relative
// frequency or the distance to the table-wide distribution). The
// lattice searches that prune by that assumption (Samarati's binary
// search, AllMinimal's predictive tagging, Incognito's subset pruning)
// rely on it; custom Policy implementations fed to them must preserve
// it.

// StatsView is what a Policy evaluates: group statistics together with
// the confidential attribute names their histograms were built with,
// so policies can address attributes by name. Conf[i] names the
// attribute behind Stats.Groups[*].Hists[i]; it may be shorter than the
// histogram vector (or nil) when the caller addresses attributes by
// index only.
type StatsView struct {
	Stats *table.GroupStats
	Conf  []string
}

// NewStatsView builds the view a policy evaluation needs: the table's
// group statistics over the given key and confidential attributes.
func NewStatsView(t *table.Table, qis, conf []string, workers int) (StatsView, error) {
	s, err := t.GroupStats(qis, conf, workers)
	if err != nil {
		return StatsView{}, err
	}
	return StatsView{Stats: s, Conf: conf}, nil
}

// index resolves a confidential attribute name to its histogram index.
func (v StatsView) index(attr string) (int, error) {
	for i, n := range v.Conf {
		if n == attr {
			if i >= v.Stats.NumConf {
				return 0, fmt.Errorf("core: confidential index %d out of range (stats cover %d)", i, v.Stats.NumConf)
			}
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: policy: confidential attribute %q not among the statistics' attributes %v", attr, v.Conf)
}

// indices resolves an attribute list to histogram indices; an empty
// list means "every attribute the view carries" and is returned as nil
// (which the group scans below treat as all histograms).
func (v StatsView) indices(attrs []string) ([]int, error) {
	if len(attrs) == 0 {
		if v.Stats.NumConf == 0 {
			return nil, fmt.Errorf("core: no confidential attributes")
		}
		return nil, nil
	}
	idxs := make([]int, len(attrs))
	for i, a := range attrs {
		idx, err := v.index(a)
		if err != nil {
			return nil, err
		}
		idxs[i] = idx
	}
	return idxs, nil
}

// Policy is a privacy property evaluated over group statistics. A
// policy must be a pure function of the statistics it is shown: the
// search engine evaluates one policy against many lattice nodes, from
// many goroutines, and caches nothing about it.
type Policy interface {
	// Name renders the policy for reports ("2-sensitive-3-anonymity").
	Name() string
	// ConfAttrs lists the confidential attributes the policy addresses
	// by name, so callers can build statistics that carry the needed
	// histograms. Policies that apply to "whatever the view carries"
	// (empty Attrs fields) return nil.
	ConfAttrs() []string
	// Evaluate renders the verdict. The Result always carries the first
	// violating group (Group, -1 when none) and, when a specific
	// confidential attribute is implicated, its histogram index (Attr,
	// -1 when none). Errors are reserved for invalid parameters or
	// attributes missing from the view, never for unsatisfied tables.
	Evaluate(v StatsView) (Result, error)
}

// satisfied is the Result every policy returns on success.
func satisfied(v StatsView) Result {
	return Result{Satisfied: true, Reason: Satisfied, Groups: v.Stats.NumGroups(), Group: -1, Attr: -1}
}

// violation is the Result shell for a failed gate.
func violation(v StatsView, reason Reason, group, attr int) Result {
	return Result{Reason: reason, Groups: v.Stats.NumGroups(), Group: group, Attr: attr}
}

// KAnonymityPolicy is Definition 1: every QI-group holds at least K
// tuples.
type KAnonymityPolicy struct {
	K int
}

func (p KAnonymityPolicy) Name() string        { return fmt.Sprintf("%d-anonymity", p.K) }
func (p KAnonymityPolicy) ConfAttrs() []string { return nil }

func (p KAnonymityPolicy) Evaluate(v StatsView) (Result, error) {
	if p.K < 1 {
		return Result{}, fmt.Errorf("core: k must be >= 1, got %d", p.K)
	}
	if g := firstBelowK(v.Stats, p.K); g >= 0 {
		return violation(v, NotKAnonymous, g, -1), nil
	}
	return satisfied(v), nil
}

// PSensitivityPolicy is the sensitivity half of Definition 2 alone:
// every QI-group holds at least P distinct values of each confidential
// attribute in Attrs (every attribute the view carries, when empty).
type PSensitivityPolicy struct {
	P     int
	Attrs []string
}

func (p PSensitivityPolicy) Name() string {
	return fmt.Sprintf("%d-sensitivity%s", p.P, attrSuffix(p.Attrs))
}
func (p PSensitivityPolicy) ConfAttrs() []string { return p.Attrs }

func (p PSensitivityPolicy) Evaluate(v StatsView) (Result, error) {
	if p.P < 1 {
		return Result{}, fmt.Errorf("core: p must be >= 1, got %d", p.P)
	}
	idxs, err := v.indices(p.Attrs)
	if err != nil {
		return Result{}, err
	}
	if g, a := firstLowDistinct(v.Stats, idxs, p.P); g >= 0 {
		return violation(v, NotPSensitive, g, a), nil
	}
	return satisfied(v), nil
}

// PSensitiveKAnonymityPolicy is Definition 2, gate for gate the check
// of Algorithm 1: k-anonymity over every group first, then the
// distinct-count scan.
type PSensitiveKAnonymityPolicy struct {
	P, K  int
	Attrs []string
}

func (p PSensitiveKAnonymityPolicy) Name() string {
	return fmt.Sprintf("%d-sensitive-%d-anonymity%s", p.P, p.K, attrSuffix(p.Attrs))
}
func (p PSensitiveKAnonymityPolicy) ConfAttrs() []string { return p.Attrs }

func (p PSensitiveKAnonymityPolicy) Evaluate(v StatsView) (Result, error) {
	if err := validatePK(p.P, p.K); err != nil {
		return Result{}, err
	}
	idxs, err := v.indices(p.Attrs)
	if err != nil {
		return Result{}, err
	}
	if g := firstBelowK(v.Stats, p.K); g >= 0 {
		return violation(v, NotKAnonymous, g, -1), nil
	}
	if g, a := firstLowDistinct(v.Stats, idxs, p.P); g >= 0 {
		return violation(v, NotPSensitive, g, a), nil
	}
	return satisfied(v), nil
}

// DistinctLDiversityPolicy requires at least L distinct values of Attr
// in every QI-group (Machanavajjhala et al.'s distinct l-diversity).
type DistinctLDiversityPolicy struct {
	Attr string
	L    int
}

func (p DistinctLDiversityPolicy) Name() string {
	return fmt.Sprintf("distinct-%d-diversity(%s)", p.L, p.Attr)
}
func (p DistinctLDiversityPolicy) ConfAttrs() []string { return []string{p.Attr} }

func (p DistinctLDiversityPolicy) Evaluate(v StatsView) (Result, error) {
	if p.L < 1 {
		return Result{}, fmt.Errorf("core: l must be >= 1, got %d", p.L)
	}
	idx, err := v.index(p.Attr)
	if err != nil {
		return Result{}, err
	}
	if g, a := firstLowDistinct(v.Stats, []int{idx}, p.L); g >= 0 {
		return violation(v, NotLDiverse, g, a), nil
	}
	return satisfied(v), nil
}

// EntropyLDiversityPolicy requires every QI-group's Attr distribution
// to have entropy at least log(L).
type EntropyLDiversityPolicy struct {
	Attr string
	L    int
}

func (p EntropyLDiversityPolicy) Name() string {
	return fmt.Sprintf("entropy-%d-diversity(%s)", p.L, p.Attr)
}
func (p EntropyLDiversityPolicy) ConfAttrs() []string { return []string{p.Attr} }

func (p EntropyLDiversityPolicy) Evaluate(v StatsView) (Result, error) {
	if p.L < 1 {
		return Result{}, fmt.Errorf("core: l must be >= 1, got %d", p.L)
	}
	idx, err := v.index(p.Attr)
	if err != nil {
		return Result{}, err
	}
	if g := firstLowEntropy(v.Stats, idx, p.L); g >= 0 {
		return violation(v, NotLDiverse, g, idx), nil
	}
	return satisfied(v), nil
}

// RecursiveLDiversityPolicy is recursive (c, l)-diversity: with the
// group's Attr value counts sorted descending (r1 >= r2 >= ... >= rm),
// every group must satisfy r1 < C * (r_L + r_{L+1} + ... + r_m), so the
// most frequent value cannot dominate even after the L-1 next most
// frequent ones are ruled out.
type RecursiveLDiversityPolicy struct {
	Attr string
	C    float64
	L    int
}

func (p RecursiveLDiversityPolicy) Name() string {
	return fmt.Sprintf("recursive-(%g,%d)-diversity(%s)", p.C, p.L, p.Attr)
}
func (p RecursiveLDiversityPolicy) ConfAttrs() []string { return []string{p.Attr} }

func (p RecursiveLDiversityPolicy) Evaluate(v StatsView) (Result, error) {
	if p.L < 1 {
		return Result{}, fmt.Errorf("core: l must be >= 1, got %d", p.L)
	}
	if p.C <= 0 {
		return Result{}, fmt.Errorf("core: recursive l-diversity requires c > 0, got %g", p.C)
	}
	idx, err := v.index(p.Attr)
	if err != nil {
		return Result{}, err
	}
	if g := firstNotRecursive(v.Stats, idx, p.C, p.L); g >= 0 {
		return violation(v, NotLDiverse, g, idx), nil
	}
	return satisfied(v), nil
}

// TClosenessPolicy requires every QI-group's Attr distribution to lie
// within variational distance T of the table-wide distribution (the
// equal-distance EMD of Li et al.).
type TClosenessPolicy struct {
	Attr string
	T    float64
}

func (p TClosenessPolicy) Name() string {
	return fmt.Sprintf("%g-closeness(%s)", p.T, p.Attr)
}
func (p TClosenessPolicy) ConfAttrs() []string { return []string{p.Attr} }

func (p TClosenessPolicy) Evaluate(v StatsView) (Result, error) {
	if p.T < 0 {
		return Result{}, fmt.Errorf("core: t must be >= 0, got %g", p.T)
	}
	idx, err := v.index(p.Attr)
	if err != nil {
		return Result{}, err
	}
	_, over := tclosenessScan(v.Stats, idx, p.T)
	if over >= 0 {
		return violation(v, NotTClose, over, idx), nil
	}
	return satisfied(v), nil
}

// PAlphaPolicy is (p, alpha)-sensitive k-anonymity: k-anonymity, at
// least P distinct values per (group, attribute) pair, and no single
// confidential value covering more than an Alpha fraction of any group.
type PAlphaPolicy struct {
	P, K  int
	Alpha float64
	Attrs []string
}

func (p PAlphaPolicy) Name() string {
	return fmt.Sprintf("(%d,%g)-sensitive-%d-anonymity%s", p.P, p.Alpha, p.K, attrSuffix(p.Attrs))
}
func (p PAlphaPolicy) ConfAttrs() []string { return p.Attrs }

func (p PAlphaPolicy) Evaluate(v StatsView) (Result, error) {
	if err := validatePK(p.P, p.K); err != nil {
		return Result{}, err
	}
	if p.Alpha <= 0 || p.Alpha > 1 {
		return Result{}, fmt.Errorf("core: alpha must be in (0, 1], got %g", p.Alpha)
	}
	idxs, err := v.indices(p.Attrs)
	if err != nil {
		return Result{}, err
	}
	if g := firstBelowK(v.Stats, p.K); g >= 0 {
		return violation(v, NotKAnonymous, g, -1), nil
	}
	if g, a, reason := firstAlphaViolation(v.Stats, idxs, p.P, p.Alpha); g >= 0 {
		return violation(v, reason, g, a), nil
	}
	return satisfied(v), nil
}

// ExtendedPolicy is extended p-sensitive k-anonymity over
// pre-resolved confidential level maps: k-anonymity, then at least P
// distinct categories of Attr at every hierarchy level 0..MaxLevel in
// every group. LevelMaps[lvl] translates ground confidential codes to
// level-lvl category codes (see ConfLevelMaps for building them from a
// hierarchy).
type ExtendedPolicy struct {
	Attr      string
	P, K      int
	MaxLevel  int
	LevelMaps []*table.CodeMap
}

func (p ExtendedPolicy) Name() string {
	return fmt.Sprintf("extended-%d-sensitive-%d-anonymity(%s)", p.P, p.K, p.Attr)
}
func (p ExtendedPolicy) ConfAttrs() []string { return []string{p.Attr} }

func (p ExtendedPolicy) Evaluate(v StatsView) (Result, error) {
	if err := validatePK(p.P, p.K); err != nil {
		return Result{}, err
	}
	if p.MaxLevel < 0 {
		return Result{}, fmt.Errorf("core: extended policy requires MaxLevel >= 0, got %d", p.MaxLevel)
	}
	if len(p.LevelMaps) <= p.MaxLevel {
		return Result{}, fmt.Errorf("core: extended policy has %d level maps for MaxLevel %d", len(p.LevelMaps), p.MaxLevel)
	}
	idx, err := v.index(p.Attr)
	if err != nil {
		return Result{}, err
	}
	if g := firstBelowK(v.Stats, p.K); g >= 0 {
		return violation(v, NotKAnonymous, g, -1), nil
	}
	g, err := firstExtendedViolation(v.Stats, idx, p.P, p.MaxLevel, p.LevelMaps)
	if err != nil {
		return Result{}, err
	}
	if g >= 0 {
		return violation(v, NotExtended, g, idx), nil
	}
	return satisfied(v), nil
}

// Composite builds the target policy the ldiv / tclose / alpha
// extensions of the tools and the service select: p-sensitive
// k-anonymity over confs, or (p, alpha)-sensitive k-anonymity when
// alpha is non-zero, conjoined with distinct l-diversity (ldiv > 0) and
// t-closeness (t non-nil) on every confidential attribute. It returns
// nil when ldiv is 0, t is nil and alpha is 0. An out-of-range
// parameter — ldiv < 0, t < 0, alpha outside (0, 1] — or an extension
// without confidential attributes is an error, so callers reject it as
// input before any verdict is attempted.
func Composite(confs []string, p, k, ldiv int, t *float64, alpha float64) (Policy, error) {
	switch {
	case ldiv < 0:
		return nil, fmt.Errorf("core: l must be >= 0 (0 = off), got %d", ldiv)
	case t != nil && !(*t >= 0):
		return nil, fmt.Errorf("core: t must be >= 0, got %g", *t)
	case alpha != 0 && !(alpha > 0 && alpha <= 1):
		return nil, fmt.Errorf("core: alpha must be in (0, 1] (0 = off), got %g", alpha)
	case ldiv == 0 && t == nil && alpha == 0:
		return nil, nil
	case len(confs) == 0:
		return nil, fmt.Errorf("core: ldiv/tclose/alpha require confidential attributes")
	}
	var parts []Policy
	if alpha != 0 {
		parts = append(parts, PAlphaPolicy{P: p, K: k, Alpha: alpha, Attrs: confs})
	} else {
		parts = append(parts, PSensitiveKAnonymityPolicy{P: p, K: k, Attrs: confs})
	}
	for _, attr := range confs {
		if ldiv > 0 {
			parts = append(parts, DistinctLDiversityPolicy{Attr: attr, L: ldiv})
		}
		if t != nil {
			parts = append(parts, TClosenessPolicy{Attr: attr, T: *t})
		}
	}
	return All(parts...), nil
}

// All conjoins policies: the composite is satisfied when every member
// is, and an unsatisfied member's Result (the first, in argument order)
// is the composite's. All() with no members is trivially satisfied.
func All(ps ...Policy) Policy {
	if len(ps) == 1 {
		return ps[0]
	}
	return conjunction(ps)
}

type conjunction []Policy

func (c conjunction) Name() string {
	names := make([]string, len(c))
	for i, p := range c {
		names[i] = p.Name()
	}
	return "all(" + strings.Join(names, " and ") + ")"
}

func (c conjunction) ConfAttrs() []string {
	var out []string
	seen := make(map[string]bool)
	for _, p := range c {
		for _, a := range p.ConfAttrs() {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

func (c conjunction) Evaluate(v StatsView) (Result, error) {
	for _, p := range c {
		res, err := p.Evaluate(v)
		if err != nil {
			return Result{}, err
		}
		if !res.Satisfied {
			return res, nil
		}
	}
	return satisfied(v), nil
}

// WithBounds wraps a policy with the Algorithm 2 / Theorem 1–2
// rejection filters: Condition 1 (bounds.P > bounds.MaxP, a property of
// the dataset) and Condition 2 (more QI-groups than bounds.MaxGroups
// admits) reject the statistics before the inner policy runs, and the
// bounds are stamped onto every Result exactly as CheckWithBounds
// reports them. Theorems 1 and 2 make bounds computed on the initial
// microdata valid for every masked microdata derived from it, so one
// wrapped policy serves a whole lattice search.
func WithBounds(inner Policy, bounds Bounds) Policy {
	return boundedPolicy{inner: inner, bounds: bounds}
}

type boundedPolicy struct {
	inner  Policy
	bounds Bounds
}

func (p boundedPolicy) Name() string        { return "bounded(" + p.inner.Name() + ")" }
func (p boundedPolicy) ConfAttrs() []string { return p.inner.ConfAttrs() }

func (p boundedPolicy) Evaluate(v StatsView) (Result, error) {
	res := Result{MaxP: p.bounds.MaxP, MaxGroups: p.bounds.MaxGroups, Group: -1, Attr: -1}

	// First necessary condition.
	if p.bounds.P > p.bounds.MaxP {
		res.Reason = FailedCondition1
		return res, nil
	}

	// Second necessary condition.
	res.Groups = v.Stats.NumGroups()
	if p.bounds.P >= 2 && res.Groups > p.bounds.MaxGroups {
		res.Reason = FailedCondition2
		return res, nil
	}

	out, err := p.inner.Evaluate(v)
	if err != nil {
		return Result{}, err
	}
	out.MaxP, out.MaxGroups = p.bounds.MaxP, p.bounds.MaxGroups
	return out, nil
}

// attrSuffix renders an explicit attribute list for policy names.
func attrSuffix(attrs []string) string {
	if len(attrs) == 0 {
		return ""
	}
	return "(" + strings.Join(attrs, ",") + ")"
}

// The group scans below are the only verdict loops in the package: the
// policies above delegate here, and the table-based checks wrap the
// policies or call the scans directly.

// firstBelowK returns the index of the first group smaller than k, or
// -1 when every group is large enough.
func firstBelowK(s *table.GroupStats, k int) int {
	for i := range s.Groups {
		if s.Groups[i].Size < k {
			return i
		}
	}
	return -1
}

// firstLowDistinct returns the first (group, histogram) whose distinct
// code count falls below p, scanning the given histogram indices (nil
// meaning all of them) in order within each group; (-1, -1) when none.
func firstLowDistinct(s *table.GroupStats, idxs []int, p int) (int, int) {
	for i := range s.Groups {
		if idxs == nil {
			for a := range s.Groups[i].Hists {
				if s.Groups[i].Hists[a].Distinct() < p {
					return i, a
				}
			}
			continue
		}
		for _, a := range idxs {
			if s.Groups[i].Hists[a].Distinct() < p {
				return i, a
			}
		}
	}
	return -1, -1
}

// firstLowEntropy returns the first group whose confIdx-histogram
// entropy falls below log(l) (with the same boundary tolerance the
// package has always used: uniform groups of exactly l values count as
// diverse), or -1.
func firstLowEntropy(s *table.GroupStats, confIdx, l int) int {
	threshold := math.Log(float64(l))
	for i := range s.Groups {
		entropy := 0.0
		n := float64(s.Groups[i].Size)
		for _, e := range s.Groups[i].Hists[confIdx] {
			pr := float64(e.Count) / n
			entropy -= pr * math.Log(pr)
		}
		if entropy+1e-12 < threshold {
			return i
		}
	}
	return -1
}

// firstNotRecursive returns the first group violating recursive (c, l)-
// diversity on the confIdx histogram, or -1.
func firstNotRecursive(s *table.GroupStats, confIdx int, c float64, l int) int {
	var counts []int
	for i := range s.Groups {
		h := s.Groups[i].Hists[confIdx]
		counts = counts[:0]
		for _, e := range h {
			counts = append(counts, e.Count)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		tail := 0
		for j := l - 1; j < len(counts); j++ {
			tail += counts[j]
		}
		if len(counts) > 0 && !(float64(counts[0]) < c*float64(tail)) {
			return i
		}
	}
	return -1
}

// tclosenessScan computes, over the confIdx histograms, the worst
// variational distance between a group's distribution and the
// table-wide one, and the first group whose distance exceeds t (beyond
// float tolerance); over is -1 when none does (pass t = +Inf to only
// measure).
func tclosenessScan(s *table.GroupStats, confIdx int, t float64) (worst float64, over int) {
	over = -1
	if s.NumRows == 0 {
		return 0, -1
	}
	global := make(map[int]float64)
	for i := range s.Groups {
		for _, e := range s.Groups[i].Hists[confIdx] {
			global[e.Code] += float64(e.Count)
		}
	}
	n := float64(s.NumRows)
	for code := range global {
		global[code] /= n
	}
	for i := range s.Groups {
		local := make(map[int]float64, len(s.Groups[i].Hists[confIdx]))
		for _, e := range s.Groups[i].Hists[confIdx] {
			local[e.Code] = float64(e.Count)
		}
		gn := float64(s.Groups[i].Size)
		dist := 0.0
		for code, p := range global {
			q := local[code] / gn
			dist += math.Abs(p - q)
		}
		// Values present locally are always present globally, so the sum
		// above covers the full support.
		dist /= 2
		if dist > worst {
			worst = dist
		}
		if over == -1 && dist > t+1e-12 {
			over = i
		}
	}
	return worst, over
}

// firstAlphaViolation returns the first (group, histogram) breaking the
// (p, alpha) scan — fewer than p distinct values (NotPSensitive) or a
// value more frequent than alpha admits (NotAlphaBounded) — over the
// given histogram indices (nil meaning all); group is -1 when none.
func firstAlphaViolation(s *table.GroupStats, idxs []int, p int, alpha float64) (int, int, Reason) {
	check := func(i, a int) (bool, Reason) {
		h := s.Groups[i].Hists[a]
		if h.Distinct() < p {
			return true, NotPSensitive
		}
		if float64(h.MaxCount()) > alpha*float64(s.Groups[i].Size) {
			return true, NotAlphaBounded
		}
		return false, Satisfied
	}
	for i := range s.Groups {
		if idxs == nil {
			for a := range s.Groups[i].Hists {
				if bad, reason := check(i, a); bad {
					return i, a, reason
				}
			}
			continue
		}
		for _, a := range idxs {
			if bad, reason := check(i, a); bad {
				return i, a, reason
			}
		}
	}
	return -1, -1, Satisfied
}

// firstExtendedViolation returns the first group with fewer than p
// distinct level-lvl categories for some level 0..maxLevel of the
// confIdx histogram, or -1; levelMaps must cover every level.
func firstExtendedViolation(s *table.GroupStats, confIdx, p, maxLevel int, levelMaps []*table.CodeMap) (int, error) {
	seen := make(map[int]struct{}, p)
	for i := range s.Groups {
		for lvl := 0; lvl <= maxLevel; lvl++ {
			// Early exit: the level is satisfied as soon as the p-th
			// category appears.
			n, err := levelCategories(s.Groups[i].Hists[confIdx], levelMaps[lvl], lvl, p, seen)
			if err != nil {
				return -1, err
			}
			if n < p {
				return i, nil
			}
		}
	}
	return -1, nil
}

// levelCategories counts the distinct level-lvl categories the
// histogram's codes map to through m, stopping once limit are found.
// seen is caller-owned scratch, cleared on entry.
func levelCategories(h table.CodeHist, m *table.CodeMap, lvl, limit int, seen map[int]struct{}) (int, error) {
	clear(seen)
	for _, e := range h {
		code, ok := m.Map(e.Code)
		if !ok {
			return 0, fmt.Errorf("core: extended check: code %d has no level-%d translation", e.Code, lvl)
		}
		seen[code] = struct{}{}
		if len(seen) >= limit {
			break
		}
	}
	return len(seen), nil
}
