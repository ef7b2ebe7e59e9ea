package search

import (
	"fmt"
	"strings"

	"psk/internal/core"
	"psk/internal/lattice"
	"psk/internal/loss"
	"psk/internal/obs"
	"psk/internal/table"
)

// Strategy names one of the five lattice search strategies. They are
// interchangeable heuristics for one NP-hard problem — finding a
// p-k-minimal generalization — so every one runs through Run and
// answers with the same Result.
type Strategy uint8

// The lattice search strategies. StrategySamarati must stay the zero
// value: it is the default everywhere a strategy is optional.
const (
	// StrategySamarati is Algorithm 3: binary search on lattice height.
	StrategySamarati Strategy = iota
	// StrategyBottomUp scans heights upward, stopping at the first
	// satisfying height.
	StrategyBottomUp
	// StrategyExhaustive enumerates the whole lattice.
	StrategyExhaustive
	// StrategyAllMinimal prunes ancestors of satisfying nodes.
	StrategyAllMinimal
	// StrategyIncognito runs the subset-lattice bottom-up search.
	StrategyIncognito

	numStrategies
)

// strategies holds what tells the strategies apart: the name the CLI,
// the service and the psk_strategy pprof label spell, the lattice walk
// that appends to Result.Minimal, and the most quasi-identifiers it
// accepts (0 = no limit). Incognito walks all 2^m − 1 nonempty QI
// subsets, projecting the base statistics onto each, so it is capped
// at 16.
var strategies = [numStrategies]struct {
	name   string
	walk   func(e *evaluator, lat *lattice.Lattice, res *Result) error
	maxQIs int
}{
	StrategySamarati:   {"samarati", samarati, 0},
	StrategyBottomUp:   {"bottomup", bottomUp, 0},
	StrategyExhaustive: {"exhaustive", exhaustive, 0},
	StrategyAllMinimal: {"allminimal", allMinimal, 0},
	StrategyIncognito:  {"incognito", incognito, 16},
}

// String names the strategy as the CLI spells it.
func (s Strategy) String() string {
	if s < numStrategies {
		return strategies[s].name
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// ParseStrategy resolves a strategy name as String spells it.
func ParseStrategy(name string) (Strategy, error) {
	var names []string
	for s, st := range strategies {
		if st.name == name {
			return Strategy(s), nil
		}
		names = append(names, st.name)
	}
	return 0, fmt.Errorf("unknown algorithm %q (want %s)", name, strings.Join(names, ", "))
}

// CheckQIs reports whether s can search a lattice over n
// quasi-identifiers. Run makes the same check; callers that accept a
// job before running it (the service's submit) call it to reject the
// job up front.
func (s Strategy) CheckQIs(n int) error {
	if max := strategies[s].maxQIs; max > 0 && n > max {
		return fmt.Errorf("search: %s supports at most %d quasi-identifiers, got %d", s, max, n)
	}
	return nil
}

// MinimalNode is one p-k-minimal generalization a search found, with
// the number of tuples its release suppresses. Only Minimal[0] is
// materialized, as Result.Masked.
type MinimalNode struct {
	Node       lattice.Node
	Suppressed int
}

// Result is the outcome of a lattice search, whichever strategy ran.
type Result struct {
	// Found reports whether any node satisfies the target property
	// within the suppression threshold.
	Found bool
	// Node is the found (p-)k-minimal generalization node: Minimal[0].
	Node lattice.Node
	// Masked is the masked microdata at Node (generalized, then
	// suppressed): the one table a search builds, after the walk, and
	// only once its rows match the statistics Node was judged on.
	Masked *table.Table
	// Suppressed is the number of tuples removed at Node.
	Suppressed int
	// Minimal are the minimal nodes the strategy found, in its walk
	// order: Samarati's one node, BottomUp's minimal-height level, and
	// the whole p-k-minimal antichain (Definition 3) for Exhaustive,
	// AllMinimal and Incognito (Incognito orders it by height, then
	// node).
	Minimal []MinimalNode
	// Satisfying is every satisfying node the walk met (minimal or
	// not), in lattice order; Samarati and Incognito leave it nil.
	Satisfying []lattice.Node
	// Stats describes the work performed.
	Stats Stats
	// Report is the telemetry snapshot taken when the search finished;
	// nil unless Config.Recorder was set.
	Report *obs.Report
	// StopReason records why the search ended: StopDone for a complete
	// run, otherwise the context/budget limit that tripped first, in
	// which case the rest of the result is the valid best-so-far state
	// (every node listed was genuinely evaluated and satisfied, but
	// nodes the budget skipped may be missing, so minimality is only
	// relative to the evaluated set, and Found may be false even though
	// an uncancelled search would have succeeded).
	StopReason StopReason
	// Frontier is the dominance-reduced set of satisfying nodes with
	// their stats-native loss scores, in lattice walk order; nil unless
	// Config.Frontier.Enabled.
	Frontier []FrontierEntry
	// Utility is the information-loss report of Masked, computed from
	// Node's statistics after suppression (loss.MeasureStats): what
	// loss.Measure reports on the materialized release. Zero, with a
	// nil Node, unless Found on an input with rows.
	Utility loss.Report
}

// ExhaustiveResult is the former name of the multi-node result;
// bench/frontier.go still spells it.
type ExhaustiveResult = Result

// found makes m the result's single answer.
func (r *Result) found(m MinimalNode) {
	r.Found, r.Node, r.Suppressed = true, m.Node, m.Suppressed
}

// Run searches im's generalization lattice with strategy s. It owns
// everything the strategies share: validation, the search span, the
// base statistics, the Condition 1 early stop on the initial microdata
// (no node is evaluated when it fails, exactly as Algorithm 3 does), one
// limiter and one full-lattice evaluator for the whole call, the
// frontier pass, the stop reason, the release and the report snapshot.
// The strategy's walk decides every node on statistics and only appends
// to Result.Minimal; the first minimal node becomes the result's Node,
// and its table, built after the walk, the one table Run materializes.
// With cfg.Workers > 1 the independent nodes of each step are evaluated
// concurrently; the result is identical to the serial search.
//
// The lattice bottom's statistics are the only row scan Run starts,
// apart from materializing the node it releases: the bounds, the loss
// baseline and Incognito's subset projections are read off them, and
// every other node's statistics roll up from them.
func Run(im *table.Table, cfg Config, s Strategy) (Result, error) {
	if s >= numStrategies {
		return Result{}, fmt.Errorf("search: unknown strategy %d", uint8(s))
	}
	st := strategies[s]
	cfg.strategy = st.name
	m, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	if err := s.CheckQIs(len(cfg.QIs)); err != nil {
		return Result{}, err
	}
	var res Result
	span := cfg.Recorder.StartSpan(obs.PhaseSearch, nil)
	defer span.End()

	eval := newEvaluator(im, m, cfg)
	lat := m.Lattice()
	base, err := eval.statsFor(lat.Bottom())
	if err != nil {
		return Result{}, err
	}
	bounds, err := statsBounds(cfg, base)
	if err != nil {
		return Result{}, err
	}
	if !bounds.Feasible() {
		// First necessary condition: no masked microdata derived from im
		// can be p-sensitive. Checked before any node is evaluated.
		res.Stats.PrunedCondition1 = 1
		span.End()
		res.Report = cfg.Recorder.Snapshot()
		return res, nil
	}
	eval.bind(bounds)
	cfg.Recorder.AddLatticeNodes(int64(lat.Size()))
	if err := st.walk(eval, lat, &res); err != nil {
		return Result{}, err
	}
	var baseline *loss.Baseline
	if cfg.Frontier.Enabled || len(res.Minimal) > 0 {
		if baseline, err = loss.BaselineFromStats(base); err != nil {
			return Result{}, err
		}
	}
	if err := attachFrontier(eval, lat, baseline, &res.Stats, &res.Frontier, &span); err != nil {
		return Result{}, err
	}
	res.StopReason = eval.lim.stopReason()
	if err := eval.release(lat, baseline, &res); err != nil {
		return Result{}, err
	}
	span.End()
	res.Report = cfg.Recorder.Snapshot()
	return res, nil
}

// statsBounds computes the necessary-condition bounds from base
// statistics — Theorems 1–2 make them properties of the initial
// microdata — when the built-in property is searched with conditions
// enabled and p >= 2; otherwise it returns permissive bounds that never
// reject. A custom Policy brings its own bounds (core.WithBounds).
func statsBounds(cfg Config, base *table.GroupStats) (core.Bounds, error) {
	if cfg.Policy == nil && cfg.UseConditions && cfg.P >= 2 {
		return core.BoundsFromStats(base, cfg.P)
	}
	return core.Bounds{MaxP: cfg.P, MaxGroups: base.NumRows, P: cfg.P}, nil
}

// release makes the walk's first minimal node, if any, the result's
// answer. It builds the node's masked table, the one table a search
// materializes, checked against the node's pre-suppression statistics,
// and reads the utility report off those statistics. The limiter does
// not gate it, so a stopped walk still releases what it found. A node
// without statistics, or rows that disagree with them, fail the search.
func (e *evaluator) release(lat *lattice.Lattice, baseline *loss.Baseline, res *Result) error {
	if len(res.Minimal) == 0 {
		return nil
	}
	node := res.Minimal[0].Node
	pre := e.rollups.lookup(node)
	if pre == nil {
		return fmt.Errorf("search: found node %v has no statistics", node)
	}
	masked, err := e.materialize(node, pre)
	if err != nil {
		return err
	}
	// An input without rows has nothing to measure loss against; the
	// search itself still succeeds at the bottom.
	if e.im.NumRows() > 0 {
		if res.Utility, err = loss.MeasureStats(loss.StatsInput{
			Stats: pre.SuppressBelow(e.cfg.K), Rows: e.im.NumRows(), Baseline: baseline,
			Node: node, Lattice: lat, K: e.cfg.K,
		}); err != nil {
			return err
		}
	}
	res.found(res.Minimal[0])
	res.Masked = masked
	return nil
}
