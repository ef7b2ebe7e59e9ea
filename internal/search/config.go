// Package search implements algorithms that find minimal
// generalizations: the paper's Algorithm 3 (Samarati-style binary
// search on the generalization lattice, extended with the two necessary
// conditions of p-sensitive k-anonymity), an exhaustive lattice scan
// that enumerates all p-k-minimal nodes (Definition 3), an
// Incognito-style bottom-up breadth-first search, and a Mondrian
// multidimensional partitioner as an alternative-paradigm baseline.
// Run is the one entry point for the five lattice strategies.
package search

import (
	"context"
	"fmt"
	"runtime"

	"psk/internal/core"
	"psk/internal/generalize"
	"psk/internal/hierarchy"
	"psk/internal/obs"
)

// Config parameterizes a minimal-generalization search.
type Config struct {
	// QIs are the quasi-identifier (key) attributes, in lattice order.
	QIs []string
	// Confidential are the confidential attributes checked for
	// p-sensitivity. Required when P >= 2; ignored when P <= 1 and
	// empty (plain k-anonymity search).
	Confidential []string
	// Hierarchies supplies a generalization hierarchy for every QI.
	Hierarchies *hierarchy.Set
	// K is the k-anonymity parameter (>= 2).
	K int
	// P is the sensitivity parameter (1 <= P <= K). P = 1 reduces the
	// search to the classic k-minimal generalization.
	P int
	// MaxSuppress is the suppression threshold TS: the maximum number
	// of tuples that may be removed after generalization.
	MaxSuppress int
	// Policy, when non-nil, replaces the built-in p-sensitive
	// k-anonymity verdict: every candidate node's post-suppression group
	// statistics are evaluated against this policy, so one search can
	// target any property composition (core.All of l-diversity,
	// t-closeness, (p, alpha), ... — "3-sensitive 5-anonymous AND
	// 0.3-close" in one pass). P, Confidential and UseConditions are
	// ignored when a policy is set (wrap the policy with core.WithBounds
	// to keep the Algorithm 2 rejection filters); K still governs the
	// suppression step, which removes sub-K groups within MaxSuppress
	// before the policy runs. Samarati, AllMinimal and Incognito
	// additionally require the policy to be monotone under group merging
	// (every built-in core policy is); Exhaustive and BottomUp do not.
	Policy core.Policy
	// UseConditions enables the two necessary-condition filters of
	// Algorithm 2 / Algorithm 3. Disabling them yields the naive
	// baseline the paper's future-work section proposes to compare
	// against (the E10 ablation).
	UseConditions bool
	// Workers bounds the worker pool that evaluates independent lattice
	// nodes concurrently. Workers <= 1 (including the zero value)
	// preserves the serial, deterministic evaluation order; larger
	// values fan node evaluation out over that many goroutines while
	// still reducing per-node outcomes in deterministic node order, so
	// found nodes, the released table and stats are identical at every
	// worker count. DefaultWorkers() returns the GOMAXPROCS-sized pool.
	Workers int
	// Recorder, when non-nil, collects telemetry for the search: per-node
	// verdicts and latencies, phase wall times, cache and roll-up
	// counters, per-policy evaluation stats and worker utilization. Run
	// snapshots it into Result.Report when the search finishes. Nil
	// (the default) disables collection at zero cost — every recording
	// site is a nil check. Telemetry never changes search results.
	Recorder *obs.Recorder
	// Tracer, when non-nil, streams one JSONL event per lattice-node
	// evaluation (node vector, height, verdict, duration, worker).
	// Independent of Recorder; nil disables tracing.
	Tracer *obs.Tracer
	// Context, when non-nil, cancels the search: once Done, no further
	// lattice node starts evaluating and the strategy returns its valid
	// best-so-far partial result tagged StopCancelled. Nil (the default)
	// means the search is not cancellable from outside.
	Context context.Context
	// Budget bounds the search by wall-clock time, nodes consumed and
	// cache memory (see Budget). The zero value is unlimited and costs
	// one pointer compare per node.
	Budget Budget
	// Frontier, when enabled, adds a utility-aware Pareto frontier pass
	// to the search (frontier.go): every satisfying lattice node is
	// scored with the statistics-native loss metrics and the result's
	// Frontier field receives the dominance-reduced set. The pass shares
	// the search's roll-up store and budget.
	Frontier FrontierConfig

	// strategy names the strategy that owns this config copy; Run stamps
	// Strategy.String() so engine workers can carry pprof labels
	// (psk_strategy) and CPU profiles attribute samples per strategy.
	strategy string
}

// DefaultWorkers returns the recommended Config.Workers value: the
// number of CPUs the Go runtime will actually schedule on.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// workerCount clamps the configured pool to the number of nodes on
// hand; n <= 1 or Workers <= 1 selects the serial path.
func (c Config) workerCount(n int) int {
	w := c.Workers
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

// Validate checks the configuration and returns a ready Masker.
func (c Config) validate() (*generalize.Masker, error) {
	if c.K < 2 {
		return nil, fmt.Errorf("search: k must be >= 2, got %d", c.K)
	}
	if c.Policy == nil {
		if c.P < 1 {
			return nil, fmt.Errorf("search: p must be >= 1, got %d", c.P)
		}
		if c.P > c.K {
			return nil, fmt.Errorf("search: p (%d) must be <= k (%d)", c.P, c.K)
		}
		if c.P >= 2 && len(c.Confidential) == 0 {
			return nil, fmt.Errorf("search: p >= 2 requires confidential attributes")
		}
	}
	if c.MaxSuppress < 0 {
		return nil, fmt.Errorf("search: negative suppression threshold %d", c.MaxSuppress)
	}
	if c.Budget.Deadline < 0 || c.Budget.MaxNodes < 0 || c.Budget.MaxCacheBytes < 0 {
		return nil, fmt.Errorf("search: negative budget limit %+v", c.Budget)
	}
	if c.Frontier.MaxRank < 0 {
		return nil, fmt.Errorf("search: negative frontier rank %d", c.Frontier.MaxRank)
	}
	for _, o := range c.Frontier.Objectives {
		if o >= numObjectives {
			return nil, fmt.Errorf("search: unknown frontier objective %d", uint8(o))
		}
	}
	if c.Hierarchies == nil {
		return nil, fmt.Errorf("search: nil hierarchy set")
	}
	return generalize.NewMasker(c.QIs, c.Hierarchies)
}

// effectiveConf lists the confidential attributes node statistics must
// carry histograms for: the configured list joined with every attribute
// the policy addresses by name. Plain k-anonymity searches need none.
func (c Config) effectiveConf() []string {
	if c.Policy == nil {
		if c.P <= 1 {
			return nil
		}
		return c.Confidential
	}
	out := append([]string(nil), c.Confidential...)
	seen := make(map[string]bool, len(out))
	for _, a := range out {
		seen[a] = true
	}
	for _, a := range c.Policy.ConfAttrs() {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// effectivePolicy resolves the policy a search evaluates at every node:
// the configured one, or the built-in equivalent of the legacy
// parameters — plain k-anonymity for P <= 1, p-sensitive k-anonymity
// otherwise, wrapped with the necessary-condition rejection filters
// when they are enabled.
func (c Config) effectivePolicy(bounds core.Bounds) core.Policy {
	if c.Policy != nil {
		return c.Policy
	}
	if c.P <= 1 {
		return core.KAnonymityPolicy{K: c.K}
	}
	var p core.Policy = core.PSensitiveKAnonymityPolicy{P: c.P, K: c.K}
	if c.UseConditions {
		p = core.WithBounds(p, bounds)
	}
	return p
}

// Stats counts the work a search performed; the E10 conditions
// experiment uses it to quantify how much the necessary conditions
// prune.
type Stats struct {
	// NodesEvaluated is the number of lattice nodes whose group
	// statistics were checked against the suppression budget and the
	// policy. No node materializes masked microdata during the walk; a
	// search builds one table, the release, after it.
	NodesEvaluated int
	// PrunedCondition1 counts Condition 1 rejections. For the built-in
	// property it is 0 or 1 — the condition is a property of the dataset,
	// checked once before the lattice is touched. A custom Policy wrapped
	// with core.WithBounds reports it per evaluated node instead.
	PrunedCondition1 int
	// PrunedCondition2 counts nodes rejected by the group-count bound
	// before any detailed scan.
	PrunedCondition2 int
	// GroupScans counts full detailed p-sensitivity scans.
	GroupScans int
	// SuppressedRows totals the tuples suppression removed at evaluated
	// nodes that passed the budget gate (nodes rejected for exceeding
	// MaxSuppress contribute nothing).
	SuppressedRows int
	// PrunedBySubsets counts Incognito's full-lattice candidate nodes
	// rejected because a projection onto a smaller QI subset already
	// failed.
	PrunedBySubsets int
	// SubsetsEvaluated is the number of QI subsets Incognito processed.
	SubsetsEvaluated int
}

// Merge accumulates another stats delta. The parallel engine gives
// every node evaluation its own Stats and merges the deltas in
// deterministic node order, which keeps totals race-free and identical
// to the serial scan at any worker count. Exported so callers that run
// several searches (experiment sweeps, the Incognito subset phases) can
// total their work the same way.
func (s *Stats) Merge(o Stats) {
	s.NodesEvaluated += o.NodesEvaluated
	s.PrunedCondition1 += o.PrunedCondition1
	s.PrunedCondition2 += o.PrunedCondition2
	s.GroupScans += o.GroupScans
	s.SuppressedRows += o.SuppressedRows
	s.PrunedBySubsets += o.PrunedBySubsets
	s.SubsetsEvaluated += o.SubsetsEvaluated
}
