package search

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"psk/internal/core"
	"psk/internal/generalize"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// evaluator is the shared node-evaluation engine behind every lattice
// search strategy: it runs the per-node property check (the node's
// statistics, suppression within budget, the policy) either serially
// or on a bounded worker pool, and reduces per-node outcomes in
// deterministic node order so that found nodes and stats never depend
// on goroutine scheduling.
//
// All shared state is immutable during evaluation: the source table and
// hierarchies are read-only, the necessary-condition bounds were hoisted
// out of the loop once per search (Theorems 1-2 make them valid for
// every derived masking, so workers share them without locks), and the
// search's generalization cache synchronizes internally with per-entry
// sync.Once. Each node evaluation accumulates its own Stats delta;
// merging happens single-threaded at reduction time.
type evaluator struct {
	im     *table.Table
	m      *generalize.Masker
	cache  *generalize.Cache
	qis    []string
	cfg    Config
	bounds core.Bounds
	// policy is the per-node verdict (cfg.effectivePolicy): the custom
	// Config.Policy, or the built-in equivalent of the legacy P/K
	// parameters. conf is the attribute list its statistics carry
	// histograms for (cfg.effectiveConf).
	policy core.Policy
	conf   []string
	// rollups holds each evaluated node's pre-suppression group
	// statistics so ancestor nodes are checked by merging groups
	// (rollup.go) instead of re-scanning rows. It is per-search state:
	// Incognito's subset searches each get their own store (their nodes
	// index different QI subsets) while sharing the search's cache.
	rollups *rollupStore
	// rec and tracer are the telemetry sinks (Config.Recorder/Tracer);
	// both are nil-safe, so the hot path calls them unguarded and the
	// disabled configuration costs one compare per call site.
	rec    *obs.Recorder
	tracer *obs.Tracer
	// lim enforces Config.Context and Config.Budget (budget.go). Nil —
	// the unbudgeted default — costs one compare per node. Strategies
	// that build several evaluators (Samarati's probes share one;
	// Incognito builds one per subset) share a single limiter so the
	// whole strategy call spends one budget.
	lim *limiter
}

// newEvaluator builds the engine for one search, with the search's own
// generalization cache and limiter. The evaluator computes statistics
// at once but judges nodes only after bind.
func newEvaluator(im *table.Table, m *generalize.Masker, cfg Config) *evaluator {
	return newLimitedEvaluator(im, m, m.NewCache(im, cfg.Recorder), cfg, cfg.newLimiter())
}

// newLimitedEvaluator is newEvaluator with an explicit cache and
// limiter, for searches that build several evaluators and need them to
// share one cache and draw on one budget (Incognito's subset passes),
// or that search a table of their own (the incremental repair). m's
// quasi-identifiers must match cfg.QIs; the cache must be built over
// im with the hierarchies cfg names.
func newLimitedEvaluator(im *table.Table, m *generalize.Masker, cache *generalize.Cache, cfg Config, lim *limiter) *evaluator {
	lim.attachMem(cache.Bytes)
	return &evaluator{
		im: im, m: m, cache: cache, qis: cfg.QIs, cfg: cfg,
		conf:    cfg.effectiveConf(),
		rollups: newRollupStore(),
		rec:     cfg.Recorder, tracer: cfg.Tracer,
		lim: lim,
	}
}

// bind installs the necessary-condition bounds and the per-node policy
// built on them; Run binds once it has read the bounds off the base
// statistics.
func (e *evaluator) bind(bounds core.Bounds) *evaluator {
	e.bounds = bounds
	e.policy = core.Observe(e.cfg.effectivePolicy(bounds), e.cfg.Recorder)
	return e
}

// outcome is the result of evaluating one lattice node: a verdict plus
// the statistics it was drawn from.
type outcome struct {
	// evaluated distinguishes real results from nodes skipped by early
	// cancellation (only ever nodes ordered after the first hit).
	evaluated bool
	ok        bool
	// suppressed is the node's sub-k tuple count, TuplesBelow(k).
	suppressed int
	stats      Stats
	err        error
	// post and res are set when the node satisfied: the post-suppression
	// group statistics the verdict ran on, and the verdict itself. The
	// frontier scan scores nodes from them. GroupStats returns plain heap
	// data (its arena scratch is released internally), so retaining it
	// here is safe.
	post *table.GroupStats
	res  core.Result
}

// minimal is the outcome of a satisfying node as a found node.
func (o outcome) minimal(node lattice.Node) MinimalNode {
	return MinimalNode{Node: node, Suppressed: o.suppressed}
}

// evalNode runs the property check at one node on group statistics:
// the node's pre-suppression stats come from the roll-up store (rows are
// scanned at most once per search, at the lattice bottom), suppression
// is replayed on the statistics, and the policy verdict runs on
// histograms. The bounds are reused across nodes per Theorems 1 and 2.
// No table is built here: Run materializes the one node it releases
// after the walk (release).
func (e *evaluator) evalNode(node lattice.Node) outcome {
	var o outcome
	o.evaluated = true

	s, err := e.statsFor(node)
	if err != nil {
		o.err = err
		return o
	}

	o.stats.NodesEvaluated++

	// Suppression step on the statistics: SuppressWithin's verdict is
	// "violating tuples <= budget", and its removal drops exactly the
	// sub-k groups.
	supStart := e.rec.Start()
	violating := s.TuplesBelow(e.cfg.K)
	if violating > e.cfg.MaxSuppress {
		e.rec.PhaseEnd(obs.PhaseSuppress, supStart)
		return o
	}
	post := s.SuppressBelow(e.cfg.K)
	e.rec.PhaseEnd(obs.PhaseSuppress, supStart)
	o.stats.SuppressedRows += violating
	// Note: when the budget admits suppressing every tuple, the empty
	// release vacuously satisfies the property; the paper's Table 4
	// relies on this (TS = 10 makes the bottom node 3-minimal).

	polStart := e.rec.Start()
	res, err := e.policy.Evaluate(core.StatsView{Stats: post, Conf: e.conf})
	e.rec.PhaseEnd(obs.PhasePolicy, polStart)
	if err != nil {
		o.err = err
		return o
	}
	if e.verdict(res, &o) {
		o.ok, o.suppressed, o.post, o.res = true, violating, post, res
	}
	return o
}

// verdict folds a policy result into the outcome's stats counters and
// reports whether the node satisfies the policy. The counter mapping
// mirrors Algorithm 3: bounds rejections are prunes that skipped the
// detailed scan; everything else — satisfied or a real violation —
// paid for one.
func (e *evaluator) verdict(res core.Result, o *outcome) bool {
	switch res.Reason {
	case core.FailedCondition1:
		o.stats.PrunedCondition1++
	case core.FailedCondition2:
		o.stats.PrunedCondition2++
	default:
		o.stats.GroupScans++
	}
	return res.Satisfied
}

// materialize builds the masked table of a node the statistics proved
// satisfying: generalize through the cache's walks, then suppress the
// sub-k groups. The suppression pass checks the rows against pre, the
// node's pre-suppression statistics the verdict was drawn from, group
// for group, and the tuples it suppresses against pre's sub-k count:
// a table the verdict never judged is an error, not a release.
func (e *evaluator) materialize(node lattice.Node, pre *table.GroupStats) (*table.Table, error) {
	defer e.rec.PhaseEnd(obs.PhaseMaterialize, e.rec.Start())
	g, err := e.cache.ApplyQIs(e.qis, node)
	if err != nil {
		return nil, err
	}
	mm, suppressed, within, err := e.m.SuppressMatching(g, e.cfg.K, e.cfg.MaxSuppress, pre)
	if err != nil {
		return nil, fmt.Errorf("search: materialize node %v: %w", node, err)
	}
	if want := pre.TuplesBelow(e.cfg.K); !within || suppressed != want {
		return nil, fmt.Errorf("search: materialize node %v: the rows suppress %d tuples, the statistics %d (budget %d)", node, suppressed, want, e.cfg.MaxSuppress)
	}
	return mm, nil
}

// evalTimed wraps evalNode with the per-node telemetry: one verdict +
// latency sample on the recorder, busy time on the worker's row, and
// one trace event. Nodes that error before counting as evaluated (an
// apply failure) produce neither, keeping the trace event count equal
// to Stats.NodesEvaluated. With both sinks nil the wrapper is a tail
// call — no clock reads.
func (e *evaluator) evalTimed(node lattice.Node, worker int) outcome {
	if e.rec == nil && e.tracer == nil {
		return e.evalNode(node)
	}
	start := time.Now()
	o := e.evalNode(node)
	d := time.Since(start)
	if o.stats.NodesEvaluated == 0 {
		return o
	}
	v := nodeVerdict(o)
	e.rec.NodeEvaluated(v, d)
	e.rec.WorkerBusy(worker, d)
	e.rec.AddSuppressedRows(int64(o.stats.SuppressedRows))
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Node:       append([]int(nil), node...),
			Height:     node.Height(),
			Verdict:    v.String(),
			DurationNs: d.Nanoseconds(),
			Worker:     worker,
		})
	}
	return o
}

// evalSafe wraps evalTimed with panic recovery: a panicking node
// evaluation (a buggy custom Policy, hostile data tripping an internal
// invariant) becomes an error outcome for that node instead of killing
// the process, and the reduction surfaces it exactly like any other
// node error. The recover here pairs with statsFor's, which must
// additionally publish the node's roll-up entry so no other worker
// blocks on it forever.
func (e *evaluator) evalSafe(node lattice.Node, worker int) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			e.rec.PanicRecovered()
			o = outcome{evaluated: true, err: fmt.Errorf("search: node %v: panic recovered: %v", node, r)}
		}
	}()
	return e.evalTimed(node, worker)
}

// nodeVerdict classifies an outcome from its stats delta: each
// evaluated node increments exactly one of the prune/scan counters, so
// the delta plus the ok/err flags fully determine the verdict.
func nodeVerdict(o outcome) obs.Verdict {
	switch {
	case o.err != nil:
		return obs.VerdictError
	case o.ok:
		return obs.VerdictSatisfied
	case o.stats.PrunedCondition1 > 0:
		return obs.VerdictPrunedCondition1
	case o.stats.PrunedCondition2 > 0:
		return obs.VerdictPrunedCondition2
	case o.stats.GroupScans > 0:
		return obs.VerdictViolated
	default:
		return obs.VerdictOverBudget
	}
}

// run evaluates the nodes, serially or on the worker pool. With
// cancelEarly, nodes ordered after an already-observed hit (or error)
// are skipped: the reduction only ever consumes outcomes up to the
// first hit in node order, and every node before it is guaranteed to be
// evaluated, so cancellation can never change the reduced result — it
// only avoids wasted work.
//
// The limiter bounds the batch two ways. The node budget truncates it
// up front to the prefix nodes[:limit] — a property of node order
// alone, so serial and parallel runs evaluate the same prefix. The
// time-dependent limits (context, deadline, cache bytes) gate each
// claim via checkpoint; once tripped, no further node starts, leaving
// arbitrary gaps the reductions already tolerate. run returns limit so
// the reduction can tell budget truncation from completion.
func (e *evaluator) run(nodes []lattice.Node, cancelEarly bool) ([]outcome, int) {
	n := len(nodes)
	outs := make([]outcome, n)
	limit := e.lim.allowance(n)
	w := e.cfg.workerCount(limit)
	e.rec.SetPoolSize(w)
	if w <= 1 {
		e.labeled(0, func() {
			for i := 0; i < limit; i++ {
				if !e.lim.checkpoint() {
					break
				}
				outs[i] = e.evalSafe(nodes[i], 0)
				if cancelEarly && (outs[i].ok || outs[i].err != nil) {
					break
				}
			}
		})
		return outs, limit
	}
	var next int64
	barrier := int64(limit) // lowest index seen to hit or fail hard
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			e.labeled(worker, func() {
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= limit {
						return
					}
					if !e.lim.checkpoint() {
						return
					}
					if cancelEarly && int64(i) > atomic.LoadInt64(&barrier) {
						continue
					}
					o := e.evalSafe(nodes[i], worker)
					outs[i] = o
					if cancelEarly && (o.ok || o.err != nil) {
						for {
							cur := atomic.LoadInt64(&barrier)
							if int64(i) >= cur || atomic.CompareAndSwapInt64(&barrier, cur, int64(i)) {
								break
							}
						}
					}
				}
			})
		}(g)
	}
	wg.Wait()
	return outs, limit
}

// labeled runs fn under pprof goroutine labels identifying the
// strategy, pipeline phase and worker id, so CPU and goroutine profiles
// scraped from the live /debug/pprof endpoints (or -cpuprofile files)
// attribute samples to (psk_strategy, psk_phase, psk_worker). Labels
// cost one small allocation per engine batch — amortized over the
// batch's node evaluations — and are restored on return.
func (e *evaluator) labeled(worker int, fn func()) {
	strat := e.cfg.strategy
	if strat == "" {
		strat = "direct"
	}
	pprof.Do(context.Background(), pprof.Labels(
		"psk_strategy", strat,
		"psk_phase", "node-eval",
		"psk_worker", strconv.Itoa(worker),
	), func(context.Context) { fn() })
}

// firstHit returns the index and outcome of the first satisfying node
// in node order, or index -1. Stats are merged exactly as the serial
// scan would: deltas accumulate in node order up to and including the
// first hit (or error); speculative work past it is discarded, so
// totals are identical at every worker count. The node budget is
// charged with the same consumed count, making budget spend equally
// scheduling-independent; a truncated batch that found no hit trips
// StopNodeBudget (a hit inside the prefix means the truncation never
// mattered).
func (e *evaluator) firstHit(nodes []lattice.Node, stats *Stats) (int, outcome, error) {
	outs, limit := e.run(nodes, true)
	consumed := 0
	for i := range outs {
		o := outs[i]
		if !o.evaluated {
			continue
		}
		stats.Merge(o.stats)
		consumed++
		if o.err != nil {
			e.lim.charge(consumed)
			return -1, outcome{}, o.err
		}
		if o.ok {
			e.lim.charge(consumed)
			if e.rec != nil {
				e.rec.NoteBest(nodes[i].String(), nodes[i].Height())
			}
			return i, o, nil
		}
	}
	e.lim.charge(consumed)
	if limit < len(nodes) && !e.lim.tripped() {
		e.lim.trip(StopNodeBudget)
	}
	return -1, outcome{}, nil
}

// evalAll evaluates every node and merges all stats deltas in node
// order, returning the outcomes (or the first error in node order).
// Nodes a tripped limiter skipped stay !evaluated in the returned
// slice; callers treat them as non-satisfying, which keeps partial
// results valid (everything reported satisfying really was evaluated).
func (e *evaluator) evalAll(nodes []lattice.Node, stats *Stats) ([]outcome, error) {
	outs, limit := e.run(nodes, false)
	consumed := 0
	noted := false
	for i := range outs {
		if !outs[i].evaluated {
			continue
		}
		stats.Merge(outs[i].stats)
		consumed++
		if outs[i].err != nil {
			e.lim.charge(consumed)
			return nil, outs[i].err
		}
		// Best-so-far gauge: the first satisfying node in reduction order
		// (levels ascend, so it is a lowest-height hit). Noted here, on the
		// single-threaded reduction, so the gauge is scheduling-independent.
		if outs[i].ok && !noted && e.rec != nil {
			e.rec.NoteBest(nodes[i].String(), nodes[i].Height())
			noted = true
		}
	}
	e.lim.charge(consumed)
	if limit < len(nodes) && !e.lim.tripped() {
		e.lim.trip(StopNodeBudget)
	}
	return outs, nil
}
