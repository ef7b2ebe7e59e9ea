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
// statistics, suppression within budget, the policy) on a bounded
// worker pool, the calling goroutine when the pool has one worker, and
// reduces per-node outcomes in deterministic node order so that found
// nodes and stats never depend on goroutine scheduling.
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
	// statistics, so ancestor nodes are checked by merging groups
	// (rollup.go) instead of re-scanning rows, and its verdict, so no
	// node is judged twice. It is per-search state: every walk of the
	// search, Incognito's subset passes and the frontier scan included,
	// reads and fills the one store.
	rollups *rollupStore
	// rec and tracer are the telemetry sinks (Config.Recorder/Tracer);
	// both are nil-safe, so the hot path calls them unguarded and the
	// disabled configuration costs one compare per call site.
	rec    *obs.Recorder
	tracer *obs.Tracer
	// lim enforces Config.Context and Config.Budget (budget.go). Nil —
	// the unbudgeted default — costs one compare per node. One
	// evaluator, and so one limiter, serves the whole strategy call, so
	// it spends one budget.
	lim *limiter
}

// newEvaluator builds the engine for one search over im, with the
// search's own generalization cache and limiter; m's quasi-identifiers
// must match cfg.QIs. The evaluator computes statistics at once but
// judges nodes only after bind.
func newEvaluator(im *table.Table, m *generalize.Masker, cfg Config) *evaluator {
	cache := m.NewCache(im, cfg.Recorder)
	lim := cfg.newLimiter()
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

// judgement is what judging a node decides, and all that a revisit of
// the node answers with: whether it satisfied, the tuples its release
// suppresses (set when it satisfied), the policy result and the
// verdict class. The roll-up store keeps it beside the node's
// statistics.
type judgement struct {
	ok         bool
	suppressed int
	res        core.Result
	class      obs.Verdict
}

// outcome is the result of evaluating one lattice node: its judgement
// plus the work it cost.
type outcome struct {
	judgement
	// entry is the node's store entry, nil when its statistics failed;
	// the reduction files the judgement on it.
	entry *rollupEntry
	// evaluated distinguishes real results from nodes skipped by a
	// first-hit batch stopping early (only ever nodes ordered after the
	// first hit) or by a tripped limiter.
	evaluated bool
	// revisit marks a node the search had already judged: run answered
	// it from the store, so it costs no work, moves no counter, emits no
	// trace event and spends no node budget.
	revisit bool
	stats   Stats
	err     error
}

// minimal is the outcome of a satisfying node as a found node.
func (o outcome) minimal(node lattice.Node) MinimalNode {
	return MinimalNode{Node: node, Suppressed: o.suppressed}
}

// evalNode runs the property check at one node on group statistics:
// the node's pre-suppression stats are its store entry's, or computed
// and stored when entry is nil (rows are scanned at most once per
// search, at the lattice bottom), suppression is replayed on the
// statistics, and the policy verdict runs on histograms. The bounds are
// reused across nodes per Theorems 1 and 2. No table is built here: Run
// materializes the one node it releases after the walk (release).
func (e *evaluator) evalNode(node lattice.Node, entry *rollupEntry) outcome {
	var o outcome
	o.evaluated = true

	if entry != nil {
		e.rec.RollupReuse()
	} else {
		var err error
		if entry, err = e.statsFor(node); err != nil {
			o.err, o.class = err, obs.VerdictError
			return o
		}
	}
	o.entry = entry
	s := entry.stats

	o.stats.NodesEvaluated++

	// Suppression step on the statistics: SuppressWithin's verdict is
	// "violating tuples <= budget", and its removal drops exactly the
	// sub-k groups.
	supStart := e.rec.Start()
	violating := s.TuplesBelow(e.cfg.K)
	if violating > e.cfg.MaxSuppress {
		e.rec.PhaseEnd(obs.PhaseSuppress, supStart)
		o.class = obs.VerdictOverBudget
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
		o.err, o.class = err, obs.VerdictError
		return o
	}
	o.res, o.ok = res, res.Satisfied
	o.class = verdict(res, &o.stats)
	if o.ok {
		o.suppressed = violating
	}
	return o
}

// verdict counts a policy result in stats and returns its verdict
// class; Incremental.Republish counts its re-verdicts through it too.
// The counter mapping mirrors Algorithm 3: bounds rejections are prunes
// that skipped the detailed scan; everything else — satisfied or a real
// violation — paid for one.
func verdict(res core.Result, stats *Stats) obs.Verdict {
	class := obs.VerdictViolated
	switch res.Reason {
	case core.FailedCondition1:
		stats.PrunedCondition1++
		class = obs.VerdictPrunedCondition1
	case core.FailedCondition2:
		stats.PrunedCondition2++
		class = obs.VerdictPrunedCondition2
	default:
		stats.GroupScans++
	}
	if res.Satisfied {
		return obs.VerdictSatisfied
	}
	return class
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

// evalSafe runs evalNode with panic recovery and the per-node
// telemetry. A panicking node evaluation (a buggy custom Policy,
// hostile data tripping an internal invariant) becomes an error outcome
// for that node instead of killing the process, and the reduction
// surfaces it exactly like any other node error. A panic leaves nothing
// half-built: statsFor stores a node only once its statistics are
// complete, and no other worker waits on a node, since a batch holds
// each node once. The telemetry is one verdict + latency sample on the
// recorder, busy time on the worker's row, and one trace event. Nodes
// that error before counting as evaluated (an apply failure, a panic)
// produce neither, keeping the trace event count equal to
// Stats.NodesEvaluated. With both sinks nil no clock is read.
func (e *evaluator) evalSafe(node lattice.Node, entry *rollupEntry, worker int) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			e.rec.PanicRecovered()
			o = outcome{judgement: judgement{class: obs.VerdictError}, evaluated: true,
				err: fmt.Errorf("search: node %v: panic recovered: %v", node, r)}
		}
	}()
	if e.rec == nil && e.tracer == nil {
		return e.evalNode(node, entry)
	}
	start := time.Now()
	o = e.evalNode(node, entry)
	d := time.Since(start)
	if o.stats.NodesEvaluated == 0 {
		return o
	}
	e.rec.NodeEvaluated(o.class, d)
	e.rec.WorkerBusy(worker, d)
	e.rec.AddSuppressedRows(int64(o.stats.SuppressedRows))
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Node:       append([]int(nil), node...),
			Height:     node.Height(),
			Verdict:    o.class.String(),
			DurationNs: d.Nanoseconds(),
			Worker:     worker,
		})
	}
	return o
}

// run evaluates the nodes of one batch. It looks each node up in the
// store once: a node the search already judged is not evaluated again,
// its stored judgement answers it as a revisit, and any other node's
// entry (or nil) goes to its evaluation, through the node's outcome
// slot.
//
// One worker body claims the pending nodes in node order and evaluates
// them, on the calling goroutine for one worker and on w goroutines
// otherwise. In a first-hit batch a worker returns once its claimed
// node lies past the lowest hit (or error) observed so far, before the
// limiter's checkpoint: the reduction consumes outcomes only up to the
// first hit in node order, and every node before it is still
// evaluated, so stopping changes cost, never results. (Samarati's
// probes and the incremental repair, the walks that pass first, never
// revisit a node, so no revisit is a hit to stop on.)
//
// The limiter bounds the batch two ways. The node budget truncates it
// up front to the prefix nodes[:cut] that holds as many unjudged nodes
// as the budget has left — a property of node order and of the
// judgements earlier batches reduced, so every worker count evaluates
// the same prefix. The time-dependent limits (context, deadline, cache
// bytes) gate each claim via checkpoint; once tripped, no further node
// starts, leaving arbitrary gaps the reduction already tolerates. run
// returns cut so the reduction can tell budget truncation from
// completion.
func (e *evaluator) run(nodes []lattice.Node, first bool) ([]outcome, int) {
	outs := make([]outcome, len(nodes))
	var pending []int // indices of the nodes to evaluate
	for i, node := range nodes {
		entry := e.rollups.get(node)
		if entry != nil && entry.judged {
			outs[i] = outcome{judgement: entry.verdict, entry: entry, evaluated: true, revisit: true}
			continue
		}
		outs[i].entry = entry
		pending = append(pending, i)
	}
	cut := len(nodes)
	if limit := e.lim.allowance(len(pending)); limit < len(pending) {
		cut, pending = pending[limit], pending[:limit]
		clear(outs[cut:])
	}
	var next, barrier atomic.Int64 // barrier: lowest index seen to hit or fail hard
	barrier.Store(int64(cut))
	work := func(worker int) {
		e.labeled(worker, func() {
			for {
				j := int(next.Add(1)) - 1
				if j >= len(pending) {
					return
				}
				i := pending[j]
				if (first && int64(i) > barrier.Load()) || !e.lim.checkpoint() {
					return
				}
				o := e.evalSafe(nodes[i], outs[i].entry, worker)
				outs[i] = o
				if first && (o.ok || o.err != nil) {
					for cur := barrier.Load(); int64(i) < cur && !barrier.CompareAndSwap(cur, int64(i)); {
						cur = barrier.Load()
					}
				}
			}
		})
	}
	w := e.cfg.workerCount(len(pending))
	e.rec.SetPoolSize(w)
	if w <= 1 {
		work(0)
		return outs, cut
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			work(worker)
		}(g)
	}
	wg.Wait()
	return outs, cut
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

// eval evaluates a batch and reduces its outcomes in node order, on the
// calling goroutine, so results, stats totals and budget spend are
// identical at every worker count. It returns the outcomes and the
// index of the first satisfying node in node order, or -1; the
// best-so-far gauge notes that node here, so the gauge is
// scheduling-independent too. A fresh evaluation merges its stats
// delta, spends one node of the budget and files its judgement on its
// store entry, so no later batch judges the node again; a revisit does
// none of that.
//
// With first, the reduction stops at the first hit (or error):
// speculative work past it is discarded, and its judgements with it.
// Without, it reduces every node. An error returns the first one in
// node order. Nodes a tripped limiter skipped stay !evaluated in outs;
// callers treat them as non-satisfying, which keeps partial results
// valid (everything reported satisfying really was evaluated). A batch
// the node budget truncated trips StopNodeBudget, unless it was a
// first-hit batch whose hit lies inside the prefix: then the truncation
// never mattered.
func (e *evaluator) eval(nodes []lattice.Node, first bool, stats *Stats) ([]outcome, int, error) {
	outs, cut := e.run(nodes, first)
	hit, consumed := -1, 0
	for i := range outs {
		o := &outs[i]
		if !o.evaluated {
			continue
		}
		if !o.revisit {
			stats.Merge(o.stats)
			consumed++
			if o.err == nil {
				o.entry.judged, o.entry.verdict = true, o.judgement
			}
		}
		if o.err != nil {
			e.lim.charge(consumed)
			return nil, -1, o.err
		}
		if o.ok && hit < 0 {
			hit = i
			if e.rec != nil {
				e.rec.NoteBest(nodes[i].String(), nodes[i].Height())
			}
			if first {
				break
			}
		}
	}
	e.lim.charge(consumed)
	if cut < len(nodes) && (hit < 0 || !first) && !e.lim.tripped() {
		e.lim.trip(StopNodeBudget)
	}
	return outs, hit, nil
}
