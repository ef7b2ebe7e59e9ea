// Package obs is the telemetry layer of the lattice-search stack: a
// zero-dependency (stdlib-only) collection of atomic counters, gauges,
// fixed-bucket latency histograms and phase timers behind a nil-safe
// *Recorder, plus a JSONL span tracer (Tracer) that streams one event
// per lattice-node evaluation for offline analysis.
//
// The design constraint is that instrumented hot paths must cost
// nothing when telemetry is off. Every Recorder method is defined on
// the pointer receiver and starts with an inlineable nil check, so the
// disabled configuration — a nil *Recorder threaded through
// search.Config — compiles down to a compare-and-branch per call site:
// no time.Now(), no atomics, no allocation. TestNilRecorderIsNoOp pins
// that for every method; the bench/ module's bench.trace_overhead_pct
// measures what an attached Recorder costs. When a Recorder is
// attached, all mutation is either a single atomic add or (for the
// per-policy table, keyed by name) a short mutex-guarded map update, so
// one Recorder is safe for the engine's whole worker pool.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Verdict classifies the outcome of one lattice-node evaluation, the
// unit of work Algorithm 3 performs. The prune verdicts mirror the
// paper's two necessary conditions; OverBudget is the suppression-
// threshold gate that rejects a node before any policy scan.
type Verdict uint8

// Node-evaluation outcomes.
const (
	// VerdictSatisfied: the node's masked microdata satisfies the
	// target policy.
	VerdictSatisfied Verdict = iota
	// VerdictViolated: the policy ran a detailed group scan and found a
	// violating group.
	VerdictViolated
	// VerdictPrunedCondition1: rejected by necessary condition 1
	// (p > maxP) before any group scan.
	VerdictPrunedCondition1
	// VerdictPrunedCondition2: rejected by the group-count bound of
	// necessary condition 2 before any group scan.
	VerdictPrunedCondition2
	// VerdictOverBudget: the node needs more suppression than the
	// threshold TS admits; no policy evaluation happened.
	VerdictOverBudget
	// VerdictError: the evaluation failed with an error.
	VerdictError

	numVerdicts
)

// String names the verdict for traces and reports.
func (v Verdict) String() string {
	switch v {
	case VerdictSatisfied:
		return "satisfied"
	case VerdictViolated:
		return "violated"
	case VerdictPrunedCondition1:
		return "pruned-condition1"
	case VerdictPrunedCondition2:
		return "pruned-condition2"
	case VerdictOverBudget:
		return "over-budget"
	case VerdictError:
		return "error"
	default:
		return "unknown"
	}
}

// Phase identifies one timed stage of the search pipeline. Phase wall
// times answer "where did the search spend its time" the way the
// paper's complexity discussion slices Algorithm 3: the one base
// group-by row scan, the per-node statistic roll-ups, the suppression
// replay, the policy group scan, and the column work of building
// masked tables.
type Phase uint8

// Pipeline phases.
const (
	// PhaseGroupBy is the base group-by: a full row scan building group
	// statistics (at most once per search, at the lattice bottom).
	PhaseGroupBy Phase = iota
	// PhaseRollup is the statistics merge deriving a node's groups from
	// an already-evaluated descendant's (plus the level-map assembly).
	PhaseRollup
	// PhaseSuppress is the suppression step: counting violating tuples
	// against the budget and removing sub-k groups, on statistics.
	PhaseSuppress
	// PhasePolicy is the policy verdict: the detailed group scan of
	// Algorithm 1/2 or any composed policy.
	PhasePolicy
	// PhaseMaterialize is the masked-table build for a node the
	// statistics already proved satisfying.
	PhaseMaterialize
	// PhaseSearch is the root span of one strategy call; every other
	// phase recorded on the strategy's own goroutine nests under it.
	PhaseSearch
	// PhaseFrontier is the Pareto frontier pass (scan + scoring +
	// dominance reduction), a child of PhaseSearch.
	PhaseFrontier
	// PhaseRepair is an incremental session's lattice ascent from a
	// violating incumbent node.
	PhaseRepair

	numPhases
)

// String names the phase for reports.
func (p Phase) String() string {
	switch p {
	case PhaseGroupBy:
		return "base-group-by"
	case PhaseRollup:
		return "rollup"
	case PhaseSuppress:
		return "suppress"
	case PhasePolicy:
		return "policy-scan"
	case PhaseMaterialize:
		return "materialize"
	case PhaseSearch:
		return "search"
	case PhaseFrontier:
		return "frontier-scan"
	case PhaseRepair:
		return "repair-ascent"
	default:
		return "unknown"
	}
}

// maxWorkers bounds the per-worker utilization table; worker ids wrap
// beyond it (the engine clamps pools to GOMAXPROCS-sized counts, far
// below this).
const maxWorkers = 64

// Recorder aggregates telemetry for one or more searches. The zero
// value is NOT ready; build one with NewRecorder. A nil *Recorder is
// the disabled implementation: every method no-ops (and Start avoids
// the clock read entirely), so callers thread nil through instrumented
// paths without guards.
type Recorder struct {
	verdicts [numVerdicts]atomic.Int64
	nodeLat  histogram

	phaseNs     [numPhases]atomic.Int64
	phaseSelfNs [numPhases]atomic.Int64
	phaseCount  [numPhases]atomic.Int64

	walkBytes          atomic.Int64
	mapHits, mapMisses atomic.Int64

	rollupMerges, rollupReuses, rollupScans atomic.Int64

	suppressedRows atomic.Int64
	poolSize       atomic.Int64
	workerNs       [maxWorkers]atomic.Int64

	budgetStops, panicsRecovered atomic.Int64

	groupsRecheck, repairAscents, coldFallbacks atomic.Int64

	frontierScored, frontierMembers, frontierDominated atomic.Int64

	// Progress gauges: the live-observability view (obs.Server's
	// /progress endpoint) reads these while a search is in flight.
	startUnixNs    int64 // set once at NewRecorder; no atomics needed
	latticeNodes   atomic.Int64
	budgetUsed     atomic.Int64
	budgetMax      atomic.Int64
	deadlineUnixNs atomic.Int64
	memUsed        atomic.Int64
	memBudget      atomic.Int64

	mu       sync.Mutex
	policies map[string]*policyAgg

	bestMu     sync.Mutex
	bestNode   string
	bestHeight int
}

type policyAgg struct {
	count, satisfied, ns int64
}

// NewRecorder returns an enabled, empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		policies:    make(map[string]*policyAgg),
		startUnixNs: time.Now().UnixNano(),
	}
}

// Enabled reports whether telemetry is being collected (r non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Start returns the current time when recording is enabled and the
// zero time otherwise — the disabled path never touches the clock.
// Pair it with PhaseEnd / Since.
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// PhaseEnd records one completed flat phase span started at start (a
// Start result): a leaf timing whose self time equals its total. Use
// StartSpan/End when the phase parents nested work.
func (r *Recorder) PhaseEnd(p Phase, start time.Time) {
	if r == nil {
		return
	}
	ns := time.Since(start).Nanoseconds()
	r.phaseNs[p].Add(ns)
	r.phaseSelfNs[p].Add(ns)
	r.phaseCount[p].Add(1)
}

// NodeEvaluated records one lattice-node evaluation: its verdict
// counter and its latency histogram sample.
func (r *Recorder) NodeEvaluated(v Verdict, d time.Duration) {
	if r == nil {
		return
	}
	if v >= numVerdicts {
		v = VerdictError
	}
	r.verdicts[v].Add(1)
	r.nodeLat.observe(d.Nanoseconds())
}

// WorkerBusy attributes evaluation time to one worker of the engine's
// pool (the serial path is worker 0).
func (r *Recorder) WorkerBusy(id int, d time.Duration) {
	if r == nil {
		return
	}
	if id < 0 {
		id = 0
	}
	r.workerNs[id%maxWorkers].Add(d.Nanoseconds())
}

// SetPoolSize records the evaluation pool width (a gauge; the maximum
// observed value wins, so nested subset searches don't shrink it).
func (r *Recorder) SetPoolSize(n int) {
	if r == nil {
		return
	}
	for {
		cur := r.poolSize.Load()
		if int64(n) <= cur || r.poolSize.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// CacheWalk records the estimated size in bytes of a freshly built
// hierarchy walk, the per-distinct-value table level maps and columns
// are read off: what the generalization cache holds and its memory
// budget counts.
func (r *Recorder) CacheWalk(bytes int64) {
	if r == nil {
		return
	}
	r.walkBytes.Add(bytes)
}

// CacheLevelMap records one level-map cache access (the code
// translations the roll-up layer moves group keys with).
func (r *Recorder) CacheLevelMap(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.mapHits.Add(1)
	} else {
		r.mapMisses.Add(1)
	}
}

// RollupMerge records a node whose statistics were derived by merging
// a descendant's groups instead of scanning rows.
func (r *Recorder) RollupMerge() {
	if r == nil {
		return
	}
	r.rollupMerges.Add(1)
}

// RollupReuse records a node whose statistics were already in the
// roll-up store (computed by or for another evaluation).
func (r *Recorder) RollupReuse() {
	if r == nil {
		return
	}
	r.rollupReuses.Add(1)
}

// RollupRowScan records a node whose statistics fell back to a full
// row scan (the lattice bottom, or a non-nested hierarchy).
func (r *Recorder) RollupRowScan() {
	if r == nil {
		return
	}
	r.rollupScans.Add(1)
}

// AddSuppressedRows accumulates tuples removed by suppression at
// evaluated nodes that passed the budget gate.
func (r *Recorder) AddSuppressedRows(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.suppressedRows.Add(n)
}

// BudgetStop records one search stopped early by a tripped budget
// limit or a cancelled context (counted once per strategy call — the
// limiter publishes a single stop reason).
func (r *Recorder) BudgetStop() {
	if r == nil {
		return
	}
	r.budgetStops.Add(1)
}

// PanicRecovered records one node evaluation whose panic the engine
// recovered into an error outcome.
func (r *Recorder) PanicRecovered() {
	if r == nil {
		return
	}
	r.panicsRecovered.Add(1)
}

// GroupsRecheck accumulates groups re-verdicted by an incremental
// session's O(changed-groups) fast path.
func (r *Recorder) GroupsRecheck(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.groupsRecheck.Add(n)
}

// RepairAscent records one repair pass: the incremental session found
// the published node violated and climbed the lattice from it instead
// of searching cold.
func (r *Recorder) RepairAscent() {
	if r == nil {
		return
	}
	r.repairAscents.Add(1)
}

// ColdFallback records one full batch-strategy run inside an
// incremental session — the initial publish, or a republish the repair
// ascent could not settle.
func (r *Recorder) ColdFallback() {
	if r == nil {
		return
	}
	r.coldFallbacks.Add(1)
}

// FrontierScored records one satisfying lattice node scored with the
// statistics-native loss metrics during a frontier scan.
func (r *Recorder) FrontierScored() {
	if r == nil {
		return
	}
	r.frontierScored.Add(1)
}

// FrontierReduced records one dominance reduction: scored entries in,
// kept frontier members out.
func (r *Recorder) FrontierReduced(scored, kept int64) {
	if r == nil {
		return
	}
	r.frontierMembers.Add(kept)
	r.frontierDominated.Add(scored - kept)
}

// Span is one hierarchical phase timing: a wall-clock interval whose
// children (spans started with this span as parent) are subtracted to
// give the phase's self time, so nested pipeline stages — a frontier
// scan inside a search, a row-scan fallback inside a roll-up — carry
// exact attribution instead of double counting. The zero Span (what a
// nil Recorder's StartSpan returns) is disabled: End no-ops and a
// pointer to it is a valid parent.
//
// Spans are designed for one call tree: Start and End run on the
// goroutine that owns the span, while child time accumulates atomically
// so a span may parent work handed to other goroutines (self time is
// then clamped at zero when concurrent children overlap its wall
// clock).
type Span struct {
	childNs int64 // atomic; first field for 64-bit alignment
	rec     *Recorder
	phase   Phase
	parent  *Span
	start   time.Time
}

// StartSpan opens a hierarchical phase span. parent may be nil (a root
// span) or a disabled span; the disabled Recorder returns a disabled
// span without touching the clock. End the span exactly once.
func (r *Recorder) StartSpan(p Phase, parent *Span) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, phase: p, parent: parent, start: time.Now()}
}

// End closes the span: its total wall time lands in the phase table,
// its self time (total minus recorded children, floored at zero) in the
// self column, and the total is reported upward to the parent. End is
// idempotent — later calls no-op — so a strategy may End its root span
// explicitly before snapshotting and still defer End for error paths.
func (s *Span) End() {
	if s == nil || s.rec == nil {
		return
	}
	tot := time.Since(s.start).Nanoseconds()
	self := tot - atomic.LoadInt64(&s.childNs)
	if self < 0 {
		self = 0
	}
	s.rec.phaseNs[s.phase].Add(tot)
	s.rec.phaseSelfNs[s.phase].Add(self)
	s.rec.phaseCount[s.phase].Add(1)
	if s.parent != nil && s.parent.rec != nil {
		atomic.AddInt64(&s.parent.childNs, tot)
	}
	s.rec = nil
}

// AddLatticeNodes grows the lattice-size gauge: the total number of
// nodes in scope for the search (summed across Incognito's subset
// lattices and an incremental session's repeated republishes), the
// denominator of the /progress completion fraction.
func (r *Recorder) AddLatticeNodes(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.latticeNodes.Add(n)
}

// NoteBudgetNodes publishes the node budget's consumption (used out of
// max; max 0 = unlimited). Called at reduction time, so the gauge
// advances exactly as the deterministic spend does.
func (r *Recorder) NoteBudgetNodes(used, max int64) {
	if r == nil {
		return
	}
	r.budgetUsed.Store(used)
	r.budgetMax.Store(max)
}

// NoteDeadline publishes the search's absolute wall-clock deadline.
func (r *Recorder) NoteDeadline(t time.Time) {
	if r == nil || t.IsZero() {
		return
	}
	r.deadlineUnixNs.Store(t.UnixNano())
}

// NoteMem publishes the estimated bytes of the search's hierarchy
// walks against its budget (budget 0 = unlimited).
func (r *Recorder) NoteMem(used, budget int64) {
	if r == nil {
		return
	}
	r.memUsed.Store(used)
	r.memBudget.Store(budget)
}

// NoteBest publishes the best satisfying node observed so far (its
// String form and lattice height). Strategies call it from the
// deterministic reduction, so the gauge never depends on scheduling.
func (r *Recorder) NoteBest(node string, height int) {
	if r == nil {
		return
	}
	r.bestMu.Lock()
	r.bestNode, r.bestHeight = node, height
	r.bestMu.Unlock()
}

// PolicyEval records one policy evaluation (by policy name) started at
// start: its latency and whether the policy was satisfied.
func (r *Recorder) PolicyEval(name string, start time.Time, satisfied bool) {
	if r == nil {
		return
	}
	d := time.Since(start).Nanoseconds()
	r.mu.Lock()
	agg := r.policies[name]
	if agg == nil {
		agg = &policyAgg{}
		r.policies[name] = agg
	}
	agg.count++
	agg.ns += d
	if satisfied {
		agg.satisfied++
	}
	r.mu.Unlock()
}
