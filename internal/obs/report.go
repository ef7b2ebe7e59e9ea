package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report is an immutable snapshot of a Recorder, the shape surfaced
// through search results, the psk facade and the CLI's -metrics-json.
// All fields are plain data so a Report marshals to JSON as-is.
type Report struct {
	// Nodes breaks node evaluations down by verdict.
	Nodes NodeCounts `json:"nodes"`
	// NodeLatency is the per-evaluation latency histogram.
	NodeLatency HistSnapshot `json:"node_latency"`
	// Phases is the per-phase wall-time table, in pipeline order.
	Phases []PhaseStat `json:"phases"`
	// Cache summarizes the generalized-column cache.
	Cache CacheStats `json:"cache"`
	// Rollup summarizes the group-statistics roll-up store.
	Rollup RollupStats `json:"rollup"`
	// Policies is the per-policy evaluation table, sorted by name.
	Policies []PolicyStat `json:"policies,omitempty"`
	// Workers is the per-worker busy-time table (workers that did any
	// work), id ascending.
	Workers []WorkerStat `json:"workers,omitempty"`
	// PoolSize is the widest evaluation pool observed.
	PoolSize int64 `json:"pool_size"`
	// SuppressedRows totals tuples removed by suppression at evaluated
	// nodes that passed the budget gate.
	SuppressedRows int64 `json:"suppressed_rows"`
	// BudgetStops counts searches stopped early by a tripped budget
	// limit or a cancelled context.
	BudgetStops int64 `json:"budget_stops"`
	// PanicsRecovered counts node evaluations whose panic the engine
	// recovered into an error outcome.
	PanicsRecovered int64 `json:"panics_recovered"`
	// Incremental summarizes streaming-session work (all zero for batch
	// searches).
	Incremental IncrementalStats `json:"incremental"`
	// Frontier summarizes the Pareto frontier pass (all zero unless the
	// search ran in frontier mode).
	Frontier FrontierStats `json:"frontier"`
}

// IncrementalStats summarizes an incremental session's republish work.
type IncrementalStats struct {
	// GroupsRecheck: groups re-verdicted by the O(changed-groups) path.
	GroupsRecheck int64 `json:"groups_recheck"`
	// RepairAscents: republishes repaired by lattice ascent from the
	// incumbent node.
	RepairAscents int64 `json:"repair_ascents"`
	// ColdFallbacks: full batch-strategy runs (initial publish included).
	ColdFallbacks int64 `json:"cold_fallbacks"`
}

// FrontierStats summarizes the frontier scan and its dominance
// reduction.
type FrontierStats struct {
	// Scored: satisfying nodes scored with the stats-native metrics.
	Scored int64 `json:"scored"`
	// Members: entries surviving the dominance reduction.
	Members int64 `json:"members"`
	// Dominated: scored entries the reduction eliminated.
	Dominated int64 `json:"dominated"`
	// CutSkipped: nodes skipped as members of a dominated up-set.
	CutSkipped int64 `json:"cut_skipped"`
}

// NodeCounts is the verdict breakdown of node evaluations.
type NodeCounts struct {
	Evaluated        int64 `json:"evaluated"`
	Satisfied        int64 `json:"satisfied"`
	Violated         int64 `json:"violated"`
	PrunedCondition1 int64 `json:"pruned_condition1"`
	PrunedCondition2 int64 `json:"pruned_condition2"`
	OverBudget       int64 `json:"over_budget"`
	Errors           int64 `json:"errors"`
}

// PruneRate is the fraction of evaluations the necessary conditions
// and the suppression budget rejected before a detailed group scan.
func (n NodeCounts) PruneRate() float64 {
	if n.Evaluated == 0 {
		return 0
	}
	return float64(n.PrunedCondition1+n.PrunedCondition2+n.OverBudget) / float64(n.Evaluated)
}

// PhaseStat is one row of the phase wall-time table. TotalNs is the
// phase's whole wall-clock footprint; SelfNs subtracts the time its
// child spans (StartSpan nesting) accounted for, so a parent phase like
// "search" attributes time to itself only when no nested phase claimed
// it. Flat PhaseEnd timings have SelfNs == TotalNs.
type PhaseStat struct {
	Phase   string `json:"phase"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// CacheStats summarizes the generalized-column cache: column accesses
// (Hits/Misses), the estimated memory of the hierarchy walks and
// columns it built (Bytes, what the cache's memory budget counts) and
// level-map accesses.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Bytes     int64 `json:"bytes"`
	MapHits   int64 `json:"map_hits"`
	MapMisses int64 `json:"map_misses"`
}

// HitRate is the column hit fraction (0 when the cache was untouched).
func (c CacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// RollupStats summarizes how node statistics were obtained.
type RollupStats struct {
	// Merges: derived by merging a descendant's groups.
	Merges int64 `json:"merges"`
	// Reuses: already present in the store.
	Reuses int64 `json:"reuses"`
	// RowScans: full row scans (the lattice bottom, or fallback).
	RowScans int64 `json:"row_scans"`
}

// PolicyStat is one row of the per-policy evaluation table.
type PolicyStat struct {
	Name      string `json:"name"`
	Count     int64  `json:"count"`
	Satisfied int64  `json:"satisfied"`
	TotalNs   int64  `json:"total_ns"`
}

// WorkerStat is one row of the worker utilization table.
type WorkerStat struct {
	ID     int   `json:"id"`
	BusyNs int64 `json:"busy_ns"`
}

// Snapshot captures the recorder's current totals; nil recorders
// snapshot to nil. Snapshots are consistent per counter (atomic loads)
// but not across counters; take them after the searches of interest
// complete, as the strategies do for Result.Report.
func (r *Recorder) Snapshot() *Report {
	if r == nil {
		return nil
	}
	rep := &Report{}
	rep.Nodes = NodeCounts{
		Satisfied:        r.verdicts[VerdictSatisfied].Load(),
		Violated:         r.verdicts[VerdictViolated].Load(),
		PrunedCondition1: r.verdicts[VerdictPrunedCondition1].Load(),
		PrunedCondition2: r.verdicts[VerdictPrunedCondition2].Load(),
		OverBudget:       r.verdicts[VerdictOverBudget].Load(),
		Errors:           r.verdicts[VerdictError].Load(),
	}
	rep.Nodes.Evaluated = rep.Nodes.Satisfied + rep.Nodes.Violated +
		rep.Nodes.PrunedCondition1 + rep.Nodes.PrunedCondition2 +
		rep.Nodes.OverBudget + rep.Nodes.Errors
	rep.NodeLatency = r.nodeLat.snapshot()
	for p := Phase(0); p < numPhases; p++ {
		if c := r.phaseCount[p].Load(); c > 0 {
			rep.Phases = append(rep.Phases, PhaseStat{
				Phase: p.String(), Count: c,
				TotalNs: r.phaseNs[p].Load(), SelfNs: r.phaseSelfNs[p].Load(),
			})
		}
	}
	rep.Cache = CacheStats{
		Hits: r.colHits.Load(), Misses: r.colMisses.Load(), Bytes: r.colBytes.Load(),
		MapHits: r.mapHits.Load(), MapMisses: r.mapMisses.Load(),
	}
	rep.Rollup = RollupStats{
		Merges: r.rollupMerges.Load(), Reuses: r.rollupReuses.Load(), RowScans: r.rollupScans.Load(),
	}
	r.mu.Lock()
	for name, agg := range r.policies {
		rep.Policies = append(rep.Policies, PolicyStat{Name: name, Count: agg.count, Satisfied: agg.satisfied, TotalNs: agg.ns})
	}
	r.mu.Unlock()
	sort.Slice(rep.Policies, func(i, j int) bool { return rep.Policies[i].Name < rep.Policies[j].Name })
	for id := range r.workerNs {
		if ns := r.workerNs[id].Load(); ns > 0 {
			rep.Workers = append(rep.Workers, WorkerStat{ID: id, BusyNs: ns})
		}
	}
	rep.PoolSize = r.poolSize.Load()
	rep.SuppressedRows = r.suppressedRows.Load()
	rep.BudgetStops = r.budgetStops.Load()
	rep.PanicsRecovered = r.panicsRecovered.Load()
	rep.Incremental = IncrementalStats{
		GroupsRecheck: r.groupsRecheck.Load(),
		RepairAscents: r.repairAscents.Load(),
		ColdFallbacks: r.coldFallbacks.Load(),
	}
	rep.Frontier = FrontierStats{
		Scored:     r.frontierScored.Load(),
		Members:    r.frontierMembers.Load(),
		Dominated:  r.frontierDominated.Load(),
		CutSkipped: r.frontierCutSkips.Load(),
	}
	return rep
}

// DeterministicCounters returns the counters that are independent of
// goroutine scheduling for barrier-style searches (Exhaustive,
// BottomUp, AllMinimal, Incognito — every strategy whose evaluated
// node set doesn't depend on cancellation timing): verdict counts,
// suppressed rows, row scans, and policy/suppress evaluation counts.
// The telemetry determinism tests pin serial == parallel on exactly
// this view; latencies, worker tables, and counters whose attribution
// depends on completion order (cache hit split, rollup merge sources)
// are deliberately excluded.
func (r *Report) DeterministicCounters() map[string]int64 {
	out := map[string]int64{
		"nodes.evaluated":            r.Nodes.Evaluated,
		"nodes.satisfied":            r.Nodes.Satisfied,
		"nodes.violated":             r.Nodes.Violated,
		"nodes.pruned_condition1":    r.Nodes.PrunedCondition1,
		"nodes.pruned_condition2":    r.Nodes.PrunedCondition2,
		"nodes.over_budget":          r.Nodes.OverBudget,
		"nodes.errors":               r.Nodes.Errors,
		"suppressed_rows":            r.SuppressedRows,
		"rollup.row_scans":           r.Rollup.RowScans,
		"incremental.groups_recheck": r.Incremental.GroupsRecheck,
		"incremental.repair_ascents": r.Incremental.RepairAscents,
		"incremental.cold_fallbacks": r.Incremental.ColdFallbacks,
		"frontier.scored":            r.Frontier.Scored,
		"frontier.members":           r.Frontier.Members,
		"frontier.dominated":         r.Frontier.Dominated,
		"frontier.cut_skipped":       r.Frontier.CutSkipped,
	}
	for _, p := range r.Phases {
		if p.Phase == PhaseSuppress.String() || p.Phase == PhasePolicy.String() {
			out["phase."+p.Phase+".count"] = p.Count
		}
	}
	for _, p := range r.Policies {
		out["policy."+p.Name+".count"] = p.Count
		out["policy."+p.Name+".satisfied"] = p.Satisfied
	}
	return out
}

// Progress is the live in-flight view of a search, the plain-data
// payload of obs.Server's /progress endpoint: completion against the
// lattice, the budget's consumption, and the best satisfying node seen
// so far. Unlike Report it is meant to be read while the search runs —
// every field is an independent atomic gauge, so the view is consistent
// per field, not across fields.
type Progress struct {
	// NodesEvaluated counts lattice-node evaluations so far.
	NodesEvaluated int64 `json:"nodes_evaluated"`
	// LatticeNodes is the total node count in scope for the search (sum
	// over Incognito's subset lattices); 0 until a strategy starts.
	LatticeNodes int64 `json:"lattice_nodes"`
	// Fraction is NodesEvaluated/LatticeNodes (0 when unknown). Pruning
	// may finish a search well below 1.0; it never overstates progress.
	Fraction float64 `json:"fraction"`
	// BestNode is the String form of the best satisfying node found so
	// far ("" until a hit), with its lattice height.
	BestNode   string `json:"best_node,omitempty"`
	BestHeight int    `json:"best_height,omitempty"`
	// BudgetNodesUsed/Max mirror Budget.MaxNodes consumption (Max 0 =
	// unlimited).
	BudgetNodesUsed int64 `json:"budget_nodes_used"`
	BudgetNodesMax  int64 `json:"budget_nodes_max"`
	// DeadlineUnixNs is the absolute deadline (0 = none).
	DeadlineUnixNs int64 `json:"deadline_unix_ns"`
	// MemUsedBytes/MemBudgetBytes mirror the cache-memory budget
	// (budget 0 = unlimited; used only advances while a budget is set).
	MemUsedBytes   int64 `json:"mem_used_bytes"`
	MemBudgetBytes int64 `json:"mem_budget_bytes"`
	// ElapsedNs is the time since the recorder was created.
	ElapsedNs int64 `json:"elapsed_ns"`
	// SuppressedRows mirrors the running suppression total.
	SuppressedRows int64 `json:"suppressed_rows"`
}

// Progress snapshots the live gauges; nil recorders return the zero
// value. Safe to call at any moment from any goroutine.
func (r *Recorder) Progress() Progress {
	if r == nil {
		return Progress{}
	}
	var p Progress
	for v := Verdict(0); v < numVerdicts; v++ {
		p.NodesEvaluated += r.verdicts[v].Load()
	}
	p.LatticeNodes = r.latticeNodes.Load()
	if p.LatticeNodes > 0 {
		p.Fraction = float64(p.NodesEvaluated) / float64(p.LatticeNodes)
	}
	r.bestMu.Lock()
	p.BestNode, p.BestHeight = r.bestNode, r.bestHeight
	r.bestMu.Unlock()
	p.BudgetNodesUsed = r.budgetUsed.Load()
	p.BudgetNodesMax = r.budgetMax.Load()
	p.DeadlineUnixNs = r.deadlineUnixNs.Load()
	p.MemUsedBytes = r.memUsed.Load()
	p.MemBudgetBytes = r.memBudget.Load()
	p.ElapsedNs = time.Now().UnixNano() - r.startUnixNs
	p.SuppressedRows = r.suppressedRows.Load()
	return p
}

// String renders the report as the human-readable block `pskanon
// -stats` and friends print.
func (r *Report) String() string {
	if r == nil {
		return "telemetry: disabled\n"
	}
	var b strings.Builder
	n := r.Nodes
	fmt.Fprintf(&b, "nodes evaluated: %d (satisfied %d, violated %d, pruned-c1 %d, pruned-c2 %d, over-budget %d, errors %d)\n",
		n.Evaluated, n.Satisfied, n.Violated, n.PrunedCondition1, n.PrunedCondition2, n.OverBudget, n.Errors)
	fmt.Fprintf(&b, "prune rate: %.1f%%   suppressed rows at evaluated nodes: %d\n", 100*n.PruneRate(), r.SuppressedRows)
	if r.NodeLatency.Count > 0 {
		fmt.Fprintf(&b, "node latency: mean %s, p50 %s, p90 %s, p99 %s, max %s\n",
			fmtNs(r.NodeLatency.MeanNs()), fmtNs(r.NodeLatency.QuantileNs(0.50)),
			fmtNs(r.NodeLatency.QuantileNs(0.90)), fmtNs(r.NodeLatency.QuantileNs(0.99)),
			fmtNs(r.NodeLatency.MaxNs))
	}
	if len(r.Phases) > 0 {
		b.WriteString("phases:\n")
		for _, p := range r.Phases {
			avg := int64(0)
			if p.Count > 0 {
				avg = p.TotalNs / p.Count
			}
			fmt.Fprintf(&b, "  %-14s %8d calls  total %10s  self %10s  avg %8s\n",
				p.Phase, p.Count, fmtNs(p.TotalNs), fmtNs(p.SelfNs), fmtNs(avg))
		}
	}
	c := r.Cache
	fmt.Fprintf(&b, "column cache: %d hits, %d misses (%.1f%% hit rate), ~%d KiB built; level maps: %d hits, %d misses\n",
		c.Hits, c.Misses, 100*c.HitRate(), c.Bytes/1024, c.MapHits, c.MapMisses)
	fmt.Fprintf(&b, "rollup store: %d merges, %d reuses, %d row scans\n",
		r.Rollup.Merges, r.Rollup.Reuses, r.Rollup.RowScans)
	if r.BudgetStops > 0 || r.PanicsRecovered > 0 {
		fmt.Fprintf(&b, "degradation: %d budget stops, %d panics recovered\n",
			r.BudgetStops, r.PanicsRecovered)
	}
	if inc := r.Incremental; inc.GroupsRecheck > 0 || inc.RepairAscents > 0 || inc.ColdFallbacks > 0 {
		fmt.Fprintf(&b, "incremental: %d groups rechecked, %d repair ascents, %d cold fallbacks\n",
			inc.GroupsRecheck, inc.RepairAscents, inc.ColdFallbacks)
	}
	if fr := r.Frontier; fr.Scored > 0 || fr.CutSkipped > 0 {
		fmt.Fprintf(&b, "frontier: %d scored, %d members, %d dominated, %d cut-skipped\n",
			fr.Scored, fr.Members, fr.Dominated, fr.CutSkipped)
	}
	if len(r.Policies) > 0 {
		b.WriteString("policies:\n")
		for _, p := range r.Policies {
			avg := int64(0)
			if p.Count > 0 {
				avg = p.TotalNs / p.Count
			}
			fmt.Fprintf(&b, "  %-48s %8d evals  %8d satisfied  total %10s  avg %8s\n",
				p.Name, p.Count, p.Satisfied, fmtNs(p.TotalNs), fmtNs(avg))
		}
	}
	if len(r.Workers) > 0 {
		fmt.Fprintf(&b, "workers (pool %d):", r.PoolSize)
		for _, w := range r.Workers {
			fmt.Fprintf(&b, " #%d %s", w.ID, fmtNs(w.BusyNs))
		}
		b.WriteString("\n")
	}
	return b.String()
}
