package psk

import (
	"context"
	"io"
	"time"

	"psk/internal/core"
	"psk/internal/generalize"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/loss"
	"psk/internal/mask"
	"psk/internal/minisql"
	"psk/internal/obs"
	"psk/internal/obs/explain"
	"psk/internal/risk"
	"psk/internal/search"
	"psk/internal/table"
)

// Re-exported relational types. The aliases make every table method
// (GroupBy, Sample, WriteCSV, ...) available to library users without a
// second import.
type (
	// Table is an immutable columnar relation.
	Table = table.Table
	// Schema describes a table's fields.
	Schema = table.Schema
	// Field is one schema entry.
	Field = table.Field
	// Value is a dynamically typed cell.
	Value = table.Value
	// Builder accumulates rows for a Table.
	Builder = table.Builder
)

// Column type constants.
const (
	String = table.String
	Int    = table.Int
	Float  = table.Float
)

// Value constructors.
var (
	// SV constructs a string Value.
	SV = table.SV
	// IV constructs an integer Value.
	IV = table.IV
	// FV constructs a float Value.
	FV = table.FV
)

// NewSchema builds a validated schema.
func NewSchema(fields ...Field) (Schema, error) { return table.NewSchema(fields...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(fields ...Field) Schema { return table.MustSchema(fields...) }

// NewBuilder returns a row builder for the schema.
func NewBuilder(schema Schema) (*Builder, error) { return table.NewBuilder(schema) }

// FromRows builds a table from typed rows.
func FromRows(schema Schema, rows [][]Value) (*Table, error) { return table.FromRows(schema, rows) }

// FromText builds a table from textual rows.
func FromText(schema Schema, rows [][]string) (*Table, error) { return table.FromText(schema, rows) }

// ReadCSV reads a CSV stream (header row required); a nil schema infers
// all-string columns.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) { return table.ReadCSV(r, schema) }

// ReadCSVFile reads a CSV file; see ReadCSV.
func ReadCSVFile(path string, schema *Schema) (*Table, error) {
	return table.ReadCSVFile(path, schema)
}

// Hierarchy types re-exported for configuration.
type (
	// Hierarchy maps ground values to generalized labels per level.
	Hierarchy = hierarchy.Hierarchy
	// Hierarchies is a per-attribute hierarchy collection.
	Hierarchies = hierarchy.Set
	// IntervalLevel configures one numeric generalization level.
	IntervalLevel = hierarchy.IntervalLevel
	// Node is a generalization lattice node (one level per QI).
	Node = lattice.Node
)

// Suppressed is the conventional one-group label ("*").
const Suppressed = hierarchy.Suppressed

// NewHierarchies collects per-attribute hierarchies, rejecting
// duplicates.
func NewHierarchies(hs ...Hierarchy) (*Hierarchies, error) { return hierarchy.NewSet(hs...) }

// NewIntervalHierarchy builds a numeric hierarchy from interval levels.
func NewIntervalHierarchy(attr string, levels []IntervalLevel) (Hierarchy, error) {
	return hierarchy.NewInterval(attr, levels)
}

// NewTreeHierarchy builds a categorical hierarchy from per-value
// ancestor chains.
func NewTreeHierarchy(attr string, chains map[string][]string) (Hierarchy, error) {
	return hierarchy.NewTree(attr, chains)
}

// ParseTreeHierarchy parses the semicolon-separated hierarchy format
// ("value;level1;level2;...").
func ParseTreeHierarchy(attr, text string) (Hierarchy, error) {
	return hierarchy.ParseTree(attr, text)
}

// NewPrefixHierarchy builds a character-suppression hierarchy (one
// character per level).
func NewPrefixHierarchy(attr string, width, steps int) (Hierarchy, error) {
	return hierarchy.NewPrefix(attr, width, steps)
}

// NewPrefixStepsHierarchy builds a character-suppression hierarchy with
// a custom per-level schedule.
func NewPrefixStepsHierarchy(attr string, width int, suppress []int) (Hierarchy, error) {
	return hierarchy.NewPrefixSteps(attr, width, suppress)
}

// NewFlatHierarchy builds the one-step hierarchy mapping every value to
// top (Suppressed when top is empty).
func NewFlatHierarchy(attr, top string) Hierarchy {
	f := hierarchy.NewFlat(attr)
	f.Top = top
	return f
}

// DecadeLevel builds a fixed-width interval level covering [lo, hi].
func DecadeLevel(name string, lo, hi, width int64) IntervalLevel {
	return hierarchy.DecadeLevel(name, lo, hi, width)
}

// Algorithm selects the lattice search strategy used by Anonymize,
// AllMinimal and OpenSession. Its String form is the name pskanon's
// -algorithm flag and the service's algorithm field accept.
type Algorithm = search.Strategy

// Available search algorithms.
const (
	// AlgorithmSamarati is the paper's Algorithm 3: binary search on
	// lattice height. The default (the zero value).
	AlgorithmSamarati = search.StrategySamarati
	// AlgorithmBottomUp scans levels from the bottom and returns the
	// first satisfying level's nodes (Incognito-style).
	AlgorithmBottomUp = search.StrategyBottomUp
	// AlgorithmExhaustive evaluates the whole lattice and returns a
	// node from the full p-k-minimal set.
	AlgorithmExhaustive = search.StrategyExhaustive
	// AlgorithmAllMinimal walks the lattice bottom-up, skipping the
	// up-set of every satisfying node, and returns the full p-k-minimal
	// set.
	AlgorithmAllMinimal = search.StrategyAllMinimal
	// AlgorithmIncognito prunes the full lattice with the subset-lattice
	// passes of LeFevre et al.'s Incognito (the paper's reference [12])
	// and returns the full p-k-minimal set.
	AlgorithmIncognito = search.StrategyIncognito
)

// ParseAlgorithm resolves an algorithm name: samarati, bottomup,
// exhaustive, allminimal or incognito.
func ParseAlgorithm(name string) (Algorithm, error) { return search.ParseStrategy(name) }

// Config parameterizes Anonymize.
type Config struct {
	// QuasiIdentifiers are the key attributes, in lattice order.
	QuasiIdentifiers []string
	// Confidential are the confidential attributes (required for P >= 2).
	Confidential []string
	// Hierarchies supplies a generalization hierarchy per QI.
	Hierarchies *Hierarchies
	// K is the k-anonymity parameter (>= 2).
	K int
	// P is the sensitivity parameter (1 <= P <= K); P = 1 yields plain
	// k-anonymity.
	P int
	// MaxSuppress is the suppression threshold TS.
	MaxSuppress int
	// Policy, when non-nil, replaces the built-in p-sensitive
	// k-anonymity target: the search accepts the first (minimal) node
	// whose suppressed masking satisfies this policy instead. Compose
	// with AllOf — e.g. AllOf(PSensitiveKAnonymity(3, 5, nil),
	// TClosenessPolicy("Disease", 0.3)) searches for "3-sensitive
	// 5-anonymous and 0.3-close" in one pass. P and Confidential are
	// ignored when set; K still drives the suppression step.
	Policy Policy
	// Algorithm selects the search strategy; zero value is Samarati.
	Algorithm Algorithm
	// Workers bounds the worker pool evaluating independent lattice
	// nodes concurrently; <= 1 (including the zero value) keeps the
	// serial path. Results are identical at every worker count.
	// DefaultWorkers() returns the GOMAXPROCS-sized pool.
	Workers int
	// Recorder, when non-nil, collects search telemetry (node verdicts
	// and latencies, phase wall times, cache and roll-up counters);
	// Result.Report snapshots it when the search finishes. Telemetry
	// never changes search results. See NewRecorder.
	Recorder *Recorder
	// Tracer, when non-nil, streams one JSONL event per evaluated
	// lattice node. See NewTracer.
	Tracer *Tracer
	// Context, when non-nil, cancels the search: once Done, no further
	// lattice node starts evaluating and the result is the valid
	// best-so-far partial state tagged StopCancelled.
	Context context.Context
	// Budget bounds the search by wall-clock deadline, lattice nodes
	// consumed and cache memory; see Budget. The zero value is
	// unlimited.
	Budget Budget
	// Frontier, when enabled, adds a utility-aware Pareto frontier pass:
	// every satisfying lattice node is scored with the stats-native loss
	// metrics and Result.Frontier receives the dominance-reduced set.
	// See FrontierConfig.
	Frontier FrontierConfig
}

// DefaultWorkers returns the recommended Config.Workers value for
// parallel lattice search: one worker per schedulable CPU.
func DefaultWorkers() int { return search.DefaultWorkers() }

func (c Config) searchConfig() search.Config {
	return search.Config{
		QIs:           c.QuasiIdentifiers,
		Confidential:  c.Confidential,
		Hierarchies:   c.Hierarchies,
		K:             c.K,
		P:             c.P,
		MaxSuppress:   c.MaxSuppress,
		Policy:        c.Policy,
		UseConditions: true,
		Workers:       c.Workers,
		Recorder:      c.Recorder,
		Tracer:        c.Tracer,
		Context:       c.Context,
		Budget:        c.Budget,
		Frontier:      c.Frontier,
	}
}

// Budget bounds a search by wall-clock deadline, lattice nodes
// consumed and the bytes of its hierarchy walks; the zero value is
// unlimited. See the search package for the deterministic partial-
// result guarantees each limit carries.
type Budget = search.Budget

// StopReason explains how a search ended; StopDone marks a complete
// run, anything else a valid best-so-far partial result.
type StopReason = search.StopReason

// Search termination causes (Result.StopReason).
const (
	// StopDone: the search ran to completion.
	StopDone = search.StopDone
	// StopDeadline: Budget.Deadline elapsed.
	StopDeadline = search.StopDeadline
	// StopNodeBudget: Budget.MaxNodes was consumed.
	StopNodeBudget = search.StopNodeBudget
	// StopMemBudget: the search's hierarchy walks exceeded
	// Budget.MaxCacheBytes during the walk.
	StopMemBudget = search.StopMemBudget
	// StopCancelled: Config.Context was cancelled.
	StopCancelled = search.StopCancelled
)

// Result is the outcome of Anonymize.
type Result struct {
	// Found reports whether any lattice node satisfies the property
	// within the suppression budget.
	Found bool
	// Node is the chosen p-k-minimal generalization.
	Node Node
	// Masked is the released microdata (generalized and suppressed).
	Masked *Table
	// Suppressed is the number of tuples removed.
	Suppressed int
	// AllMinimal lists every minimal node the algorithm found: Node
	// alone for Samarati, the minimal-height level for BottomUp, the
	// full p-k-minimal set for the others.
	AllMinimal []Node
	// Report is the telemetry snapshot of the search; nil unless
	// Config.Recorder was set.
	Report *Report
	// StopReason records why the search ended: StopDone for a complete
	// run, otherwise the context/budget limit that tripped first — the
	// rest of the result is then the valid best-so-far partial state.
	StopReason StopReason
	// Frontier is the utility-aware Pareto frontier over satisfying
	// nodes, each entry scored with the stats-native loss metrics and
	// tagged with its dominance rank; nil unless Config.Frontier was
	// enabled.
	Frontier []Frontier
	// Utility is the information-loss report of Masked, computed from
	// Node's group statistics without reading a row: what
	// MeasureUtility reports on the tables. Zero, with a nil Node,
	// unless Found on an input with rows; zero too on a session
	// republish that ran no cold search.
	Utility UtilityReport
}

// Anonymize searches the generalization lattice for a p-k-minimal
// generalization of im and returns the masked microdata (Algorithm 3 of
// the paper, or a sibling strategy per Config.Algorithm).
func Anonymize(im *Table, cfg Config) (*Result, error) {
	r, err := search.Run(im, cfg.searchConfig(), cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	return newResult(r), nil
}

// newResult maps a search result onto the facade's.
func newResult(r search.Result) *Result {
	out := &Result{
		Found: r.Found, Node: r.Node, Masked: r.Masked, Suppressed: r.Suppressed,
		Report: r.Report, StopReason: r.StopReason, Frontier: r.Frontier,
		Utility: r.Utility,
	}
	for _, m := range r.Minimal {
		out.AllMinimal = append(out.AllMinimal, m.Node)
	}
	return out
}

// IsKAnonymous reports whether every QI-group has at least k members
// (Definition 1).
func IsKAnonymous(t *Table, qis []string, k int) (bool, error) {
	return core.IsKAnonymous(t, qis, k)
}

// IsPSensitiveKAnonymous tests p-sensitive k-anonymity (Definition 2)
// using the paper's improved Algorithm 2: the two necessary conditions
// first, then the detailed group scan.
func IsPSensitiveKAnonymous(t *Table, qis, confidential []string, p, k int) (bool, error) {
	res, err := core.Check(t, qis, confidential, p, k)
	if err != nil {
		return false, err
	}
	return res.Satisfied, nil
}

// CheckBasic tests p-sensitive k-anonymity with the paper's basic
// Algorithm 1 (no condition filters).
func CheckBasic(t *Table, qis, confidential []string, p, k int) (bool, error) {
	return core.CheckBasic(t, qis, confidential, p, k)
}

// Sensitivity returns the largest p the table satisfies for its current
// QI grouping.
func Sensitivity(t *Table, qis, confidential []string) (int, error) {
	return core.Sensitivity(t, qis, confidential)
}

// MaxP evaluates Condition 1's bound: the minimum distinct-value count
// over the confidential attributes.
func MaxP(t *Table, confidential []string) (int, error) { return core.MaxP(t, confidential) }

// MaxGroups evaluates Condition 2's bound: the maximum admissible
// number of QI-groups for sensitivity p.
func MaxGroups(t *Table, confidential []string, p int) (int, error) {
	return core.MaxGroups(t, confidential, p)
}

// AttributeDisclosures counts (QI-group, confidential attribute) pairs
// with fewer than p distinct values — Table 8's measurement at p = 2.
func AttributeDisclosures(t *Table, qis, confidential []string, p int) (int, error) {
	return core.AttributeDisclosures(t, qis, confidential, p)
}

// Mondrian partitions the table with the greedy multidimensional
// algorithm under k-anonymity and optional p-sensitivity constraints.
func Mondrian(t *Table, qis, confidential []string, k, p int) (*Table, error) {
	r, err := search.Mondrian(t, search.MondrianConfig{
		QIs: qis, Confidential: confidential, K: k, P: p,
	})
	if err != nil {
		return nil, err
	}
	return r.Masked, nil
}

// Query runs a SQL SELECT (the paper's checks are expressed in SQL) over
// named tables and returns the result relation.
func Query(tables map[string]*Table, sql string) (*Table, error) {
	return minisql.Run(minisql.Catalog(tables), sql)
}

// Intruder re-exports the record-linkage attacker of internal/risk.
type Intruder = risk.Intruder

// Linkage is one individual's attack outcome.
type Linkage = risk.Linkage

// AttackSummary aggregates linkage results.
type AttackSummary = risk.Summary

// SummarizeAttack aggregates per-individual linkages.
func SummarizeAttack(links []Linkage) AttackSummary { return risk.Summarize(links) }

// UtilityReport bundles information-loss metrics for a masking.
type UtilityReport = loss.Report

// Frontier is one member of the utility-aware Pareto frontier a
// frontier-mode search returns: the node, its (satisfied) policy
// verdict, the stats-native loss report, the release summary and the
// dominance rank. See Config.Frontier.
type Frontier = search.FrontierEntry

// FrontierConfig switches a search into frontier mode; see
// Config.Frontier and DefaultObjectives.
type FrontierConfig = search.FrontierConfig

// Objective identifies one minimized axis of the frontier reduction.
type Objective = search.Objective

// Frontier objectives (see the search package for the minimization
// conventions — ObjPrecision and ObjMargin fold their "bigger is
// better" quantities into minimized coordinates).
const (
	ObjHeight         = search.ObjHeight
	ObjPrecision      = search.ObjPrecision
	ObjDiscernibility = search.ObjDiscernibility
	ObjAvgGroup       = search.ObjAvgGroup
	ObjSuppression    = search.ObjSuppression
	ObjEntropy        = search.ObjEntropy
	ObjMargin         = search.ObjMargin
)

// DefaultObjectives returns the frontier axes used when
// FrontierConfig.Objectives is empty: discernibility, entropy loss and
// suppression traded against the privacy margin.
func DefaultObjectives() []Objective { return search.DefaultObjectives() }

// MeasureUtility computes the loss metrics of masked microdata mm
// derived from im by generalizing the QIs to node under cfg's
// hierarchies. It groups each table once: the metrics come from mm's
// group statistics, measured against an entropy baseline from im's.
// Anonymize's Result.Utility is the same report for its release.
func MeasureUtility(im, mm *Table, cfg Config, node Node) (UtilityReport, error) {
	m, err := generalize.NewMasker(cfg.QuasiIdentifiers, cfg.Hierarchies)
	if err != nil {
		return UtilityReport{}, err
	}
	base, err := im.GroupStats(cfg.QuasiIdentifiers, nil, 1)
	if err != nil {
		return UtilityReport{}, err
	}
	baseline, err := loss.BaselineFromStats(base)
	if err != nil {
		return UtilityReport{}, err
	}
	released, err := mm.GroupStats(cfg.QuasiIdentifiers, nil, 1)
	if err != nil {
		return UtilityReport{}, err
	}
	return loss.MeasureStats(loss.StatsInput{
		Stats: released, Rows: im.NumRows(), Baseline: baseline,
		Node: node, Lattice: m.Lattice(), K: cfg.K,
	})
}

// RiskMeasures aggregates group-size-based re-identification risk
// (prosecutor / journalist / marketer models).
type RiskMeasures = risk.Measures

// MeasureRisk computes the re-identification risk measures of a masked
// microdata over its quasi-identifiers.
func MeasureRisk(mm *Table, qis []string) (RiskMeasures, error) { return risk.Measure(mm, qis) }

// Violation describes one QI-group breaking p-sensitive k-anonymity.
type Violation = core.GroupViolation

// ListViolations reports every violating QI-group with the reason
// (too small, or low diversity per confidential attribute). A nil
// result means the table satisfies the property.
func ListViolations(t *Table, qis, confidential []string, p, k int) ([]Violation, error) {
	return core.Violations(t, qis, confidential, p, k)
}

// GroupProfile summarizes one QI-group (size and per-confidential
// distinct counts).
type GroupProfile = core.GroupProfile

// ProfileGroups computes the profile of every QI-group.
func ProfileGroups(t *Table, qis, confidential []string) ([]GroupProfile, error) {
	return core.Profile(t, qis, confidential)
}

// ExtendedConfig configures CheckExtendedPSensitivity: a value
// hierarchy over the confidential attribute and the highest level at
// which p-diversity is still required.
type ExtendedConfig = core.ExtendedConfig

// CheckExtendedPSensitivity tests extended p-sensitive k-anonymity:
// QI-groups must keep p distinct confidential labels at every hierarchy
// level up to MaxLevel, closing the similarity attack that plain
// p-sensitivity leaves open.
func CheckExtendedPSensitivity(t *Table, qis []string, confidential string, p, k int, cfg ExtendedConfig) (bool, error) {
	return core.CheckExtended(t, qis, confidential, p, k, cfg)
}

// GreedyCluster anonymizes by greedy clustering: groups of at least k
// records with at least p distinct values per confidential attribute,
// recoded to per-cluster ranges. Lower information loss than
// full-domain generalization, no suppression.
func GreedyCluster(t *Table, qis, confidential []string, k, p int) (*Table, error) {
	res, err := search.GreedyCluster(t, search.ClusterConfig{
		QIs: qis, Confidential: confidential, K: k, P: p,
	})
	if err != nil {
		return nil, err
	}
	return res.Masked, nil
}

// AllMinimal enumerates every p-k-minimal generalization node using
// predictive tagging (monotonicity assumed, as in Samarati's search).
func AllMinimal(im *Table, cfg Config) ([]Node, error) {
	cfg.Algorithm = AlgorithmAllMinimal
	r, err := Anonymize(im, cfg)
	if err != nil {
		return nil, err
	}
	return r.AllMinimal, nil
}

// ClusterConstraint adds a category-level diversity requirement to
// GreedyClusterExtended (extended p-sensitivity enforced during
// cluster construction).
type ClusterConstraint = search.ExtendedConstraint

// GreedyClusterExtended is GreedyCluster with extended-sensitivity
// constraints: every cluster keeps at least p distinct labels at every
// hierarchy level (up to each constraint's MaxLevel) of the named
// confidential attributes.
func GreedyClusterExtended(t *Table, qis, confidential []string, k, p int, extended []ClusterConstraint) (*Table, error) {
	res, err := search.GreedyCluster(t, search.ClusterConfig{
		QIs: qis, Confidential: confidential, K: k, P: p, Extended: extended,
	})
	if err != nil {
		return nil, err
	}
	return res.Masked, nil
}

// LocalSuppress generalizes the quasi-identifiers to node and then
// applies local (cell-level) suppression: tuples in undersized
// QI-groups keep their confidential values but have every QI cell
// replaced with "*". Returns the masked table and the number of
// locally suppressed tuples. The result is k-anonymous iff that count
// is zero or at least k (re-check with IsKAnonymous).
func LocalSuppress(im *Table, cfg Config, node Node) (*Table, int, error) {
	m, err := generalize.NewMasker(cfg.QuasiIdentifiers, cfg.Hierarchies)
	if err != nil {
		return nil, 0, err
	}
	g, err := m.NewCache(im, nil).Apply(node)
	if err != nil {
		return nil, 0, err
	}
	return m.SuppressCells(g, cfg.K)
}

// AnatomyRelease is the two-table anatomy release: QIT (exact QI values
// plus GroupID) and ST (GroupID, sensitive value, count).
type AnatomyRelease = search.AnatomyResult

// Anatomize produces an anatomy bucketization (Xiao & Tao): the QIs are
// released exactly, but the sensitive attribute is only linkable to a
// group holding at least p distinct values. Fails when any sensitive
// value occurs more than n/p times (the eligibility condition).
func Anatomize(t *Table, qis []string, sensitive string, p int) (AnatomyRelease, error) {
	return search.Anatomize(t, qis, sensitive, p)
}

// Microaggregate applies MDAV microaggregation to numeric attributes:
// groups of at least k records, each value replaced by its group mean.
func Microaggregate(t *Table, attrs []string, k int) (*Table, error) {
	return mask.Microaggregate(t, attrs, k)
}

// RankSwap swaps each value of a numeric attribute with a partner
// whose rank differs by at most pct percent of n, preserving the
// marginal distribution exactly.
func RankSwap(t *Table, attr string, pct float64, seed int64) (*Table, error) {
	return mask.RankSwap(t, attr, pct, seed)
}

// AddNoise perturbs a numeric attribute with zero-mean Gaussian noise
// scaled to the attribute's standard deviation.
func AddNoise(t *Table, attr string, scale float64, seed int64) (*Table, error) {
	return mask.AddNoise(t, attr, scale, seed)
}

// CheckPAlpha tests (p, alpha)-sensitive k-anonymity: p distinct
// values per (group, confidential attribute) pair and no value holding
// more than an alpha fraction of any group.
func CheckPAlpha(t *Table, qis, confidential []string, p, k int, alpha float64) (bool, error) {
	return core.CheckPAlpha(t, qis, confidential, p, k, alpha)
}

// IsDistinctLDiverse reports whether every QI-group has at least l
// distinct values of the confidential attribute (distinct l-diversity,
// the closest relative of p-sensitivity in the follow-on literature).
func IsDistinctLDiverse(t *Table, qis []string, confidential string, l int) (bool, error) {
	return core.IsDistinctLDiverse(t, qis, confidential, l)
}

// IsEntropyLDiverse reports whether every QI-group's confidential value
// distribution has entropy at least log(l).
func IsEntropyLDiverse(t *Table, qis []string, confidential string, l int) (bool, error) {
	return core.IsEntropyLDiverse(t, qis, confidential, l)
}

// TCloseness returns the maximum variational distance between any
// QI-group's confidential value distribution and the whole-table
// distribution; the table is t-close when the result is <= t.
func TCloseness(t *Table, qis []string, confidential string) (float64, error) {
	return core.TCloseness(t, qis, confidential)
}

// Policy is a composable privacy property evaluated over group
// statistics. Every check in this package — p-sensitive k-anonymity,
// l-diversity, t-closeness, (p, alpha), extended p-sensitivity — is a
// Policy; AllOf conjoins them, and Config.Policy makes every search
// strategy target the composition. Custom implementations must be
// monotone under QI-group merging to be searched with Samarati,
// AllMinimal or Incognito.
type Policy = core.Policy

// Verdict is a policy evaluation result: Satisfied, the Reason when
// not, and the first violating group's index (Group, -1 when none).
type Verdict = core.Result

// Bounds are the Theorem 1-2 rejection bounds (maxP, maxGroups)
// computed once on the initial microdata.
type Bounds = core.Bounds

// KAnonymity is plain k-anonymity (Definition 1) as a Policy.
func KAnonymity(k int) Policy { return core.KAnonymityPolicy{K: k} }

// PSensitivity requires p distinct values per (QI-group, confidential
// attribute) pair; nil confidential means every attribute the search's
// statistics carry.
func PSensitivity(p int, confidential []string) Policy {
	return core.PSensitivityPolicy{P: p, Attrs: confidential}
}

// PSensitiveKAnonymity is the paper's Definition 2 as a Policy.
func PSensitiveKAnonymity(p, k int, confidential []string) Policy {
	return core.PSensitiveKAnonymityPolicy{P: p, K: k, Attrs: confidential}
}

// DistinctLDiversity requires l distinct confidential values per group.
func DistinctLDiversity(confidential string, l int) Policy {
	return core.DistinctLDiversityPolicy{Attr: confidential, L: l}
}

// EntropyLDiversity requires per-group value entropy of at least log(l).
func EntropyLDiversity(confidential string, l int) Policy {
	return core.EntropyLDiversityPolicy{Attr: confidential, L: l}
}

// RecursiveLDiversity is recursive (c,l)-diversity: in every group the
// most frequent value's count must stay below c times the sum of the
// l-th most frequent onwards.
func RecursiveLDiversity(confidential string, c float64, l int) Policy {
	return core.RecursiveLDiversityPolicy{Attr: confidential, C: c, L: l}
}

// TClose requires every group's confidential distribution to stay
// within variational distance t of the whole release's.
func TClose(confidential string, t float64) Policy {
	return core.TClosenessPolicy{Attr: confidential, T: t}
}

// PAlphaSensitivity is (p, alpha)-sensitive k-anonymity as a Policy.
func PAlphaSensitivity(p, k int, alpha float64, confidential []string) Policy {
	return core.PAlphaPolicy{P: p, K: k, Alpha: alpha, Attrs: confidential}
}

// AllOf conjoins policies: satisfied only when every part is; the
// verdict of the first unsatisfied part is reported.
func AllOf(policies ...Policy) Policy { return core.All(policies...) }

// BoundedPolicy wraps a policy with the paper's Algorithm 2 rejection
// filters: Condition 1 (p > maxP) and Condition 2 (too many QI-groups)
// reject before the wrapped policy scans a single group. Compute the
// bounds once on the initial microdata with ComputeBounds; Theorems 1
// and 2 keep them valid for every derived masking.
func BoundedPolicy(inner Policy, b Bounds) Policy { return core.WithBounds(inner, b) }

// ComputeBounds evaluates the two necessary-condition bounds of the
// paper on the initial microdata, for sensitivity parameter p.
func ComputeBounds(t *Table, confidential []string, p int) (Bounds, error) {
	return core.ComputeBounds(t, confidential, p)
}

// EvaluatePolicy checks a table against a policy directly (no search):
// one group-statistics pass over the QIs, then the policy verdict.
// confidential lists the attributes the statistics carry histograms
// for; it must cover every attribute the policy names, and is what
// attribute-agnostic policies (nil Attrs) apply to.
func EvaluatePolicy(t *Table, qis, confidential []string, pol Policy) (Verdict, error) {
	v, err := core.NewStatsView(t, qis, confidential, 1)
	if err != nil {
		return Verdict{}, err
	}
	return pol.Evaluate(v)
}

// Telemetry re-exports. The obs layer is nil-safe throughout: a nil
// *Recorder / *Tracer disables collection at the cost of one pointer
// compare per instrumented call site, so production paths thread nil
// without guards.
type (
	// Recorder aggregates search telemetry; attach one via
	// Config.Recorder and read Result.Report (or Snapshot it directly).
	Recorder = obs.Recorder
	// Tracer streams one JSONL event per evaluated lattice node.
	Tracer = obs.Tracer
	// Report is an immutable telemetry snapshot; String() renders the
	// block the -stats CLI flag prints, and it marshals to JSON as-is.
	Report = obs.Report
	// TraceEvent is one line of a JSONL search trace.
	TraceEvent = obs.Event
)

// NewRecorder returns an enabled, empty telemetry recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// NewTracer wraps w in a buffered JSONL node-evaluation trace; call
// Flush when the search completes.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// ReadTraceEvents parses a JSONL trace produced by a Tracer into a
// slice. For traces that may not fit in memory, use ScanTraceEvents.
func ReadTraceEvents(r io.Reader) ([]TraceEvent, error) { return obs.ReadEvents(r) }

// ScanTraceEvents streams a JSONL trace through fn one event at a
// time, in file order, without holding the trace in memory.
func ScanTraceEvents(r io.Reader, fn func(TraceEvent) error) error {
	return obs.ScanEvents(r, fn)
}

// Live observability re-exports: the in-flight view of a running
// search. A Sampler snapshots Recorder deltas into a bounded ring of
// timestamped Samples; an ObsServer serves /metrics, /progress,
// /healthz and /debug/pprof over HTTP while the search runs; an Audit
// explains a finished search from its trace and report.
type (
	// Sampler periodically snapshots a Recorder into a ring buffer of
	// Samples; see NewSampler.
	Sampler = obs.Sampler
	// Sample is one timestamped snapshot of search rates and gauges.
	Sample = obs.Sample
	// Progress is the live in-flight view of a search (completion
	// fraction, budget consumption, best-so-far node).
	Progress = obs.Progress
	// ObsServer is the stdlib-only HTTP debug server over a Recorder;
	// see NewObsServer.
	ObsServer = obs.Server
	// Audit is the reconciled explain view of one search run: per-level
	// prune attribution, budget timeline, efficiency summary. See
	// ExplainTrace.
	Audit = explain.Audit
)

// NewSampler builds a sampler over rec taking one sample per interval
// (<= 0 defaults to 250ms) into a ring of capacity entries (<= 0
// defaults to 512). Call Start to begin ticking and Stop before reading
// a final consistent ring; a nil rec yields a nil, disabled sampler.
func NewSampler(rec *Recorder, interval time.Duration, capacity int) *Sampler {
	return obs.NewSampler(rec, interval, capacity)
}

// NewObsServer binds addr (":0" selects an ephemeral port — read Addr)
// and serves the live observatory for rec: /metrics (the Report
// snapshot), /progress (Progress plus the sampler's ring), /healthz and
// /debug/pprof. sampler may be nil. Close the server when done.
func NewObsServer(addr string, rec *Recorder, sampler *Sampler) (*ObsServer, error) {
	return obs.NewServer(addr, rec, sampler)
}

// ExplainTrace streams a JSONL search trace into an Audit and, when rep
// is non-nil, reconciles the trace's verdict totals exactly against the
// report's node counters. The Audit's WriteText/WriteJSON render the
// `pskanon -explain` output.
func ExplainTrace(r io.Reader, rep *Report) (*Audit, error) {
	return explain.FromReader(r, rep)
}

// Instrument wraps a policy tree so every leaf policy reports
// per-evaluation telemetry to rec (see Report.Policies). The search
// engine applies this automatically to Config.Policy when
// Config.Recorder is set; use it directly when evaluating policies
// outside a search (as pskcheck -stats does). A nil recorder returns
// p unchanged.
func Instrument(p Policy, rec *Recorder) Policy { return core.Observe(p, rec) }
