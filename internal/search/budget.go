package search

import (
	"context"
	"sync/atomic"
	"time"

	"psk/internal/obs"
)

// Budget bounds the resources one search may spend. The zero value is
// unlimited. Budgets compose with Config.Context: whichever limit trips
// first stops the search, which then returns a valid best-so-far
// partial result tagged with the StopReason instead of an error.
type Budget struct {
	// Deadline is the wall-clock allowance for the whole search,
	// measured from the strategy call. Zero means no deadline. (To bound
	// several searches under one clock, use Config.Context with
	// context.WithDeadline instead.)
	Deadline time.Duration
	// MaxNodes caps the number of lattice nodes the search may consume.
	// Nodes are charged in deterministic reduction order — speculative
	// parallel work past a hit is free, exactly as in Stats, and so is
	// a node the search already judged — so a node-budget-stopped
	// search returns byte-identical results at every worker count. Zero
	// means unlimited.
	MaxNodes int64
	// MaxCacheBytes caps the estimated memory of the hierarchy walks
	// the search's generalization cache builds (table.Remap.MemBytes),
	// the per-value tables its level maps are read off. Checked between
	// node evaluations; the search stops before evaluating the next node
	// once the walks exceed the cap. The cache is the search's own, so
	// no other search's walks count. Zero means unlimited.
	MaxCacheBytes int64
}

// active reports whether any limit is set.
func (b Budget) active() bool {
	return b.Deadline > 0 || b.MaxNodes > 0 || b.MaxCacheBytes > 0
}

// StopReason explains why a search ended. Every Result carries one;
// StopDone marks a complete search, anything else a valid best-so-far
// partial result.
type StopReason uint8

// Search termination causes. StopDone must stay the zero value: the
// limiter publishes the first tripped reason with a compare-and-swap
// against it.
const (
	// StopDone: the search ran to completion.
	StopDone StopReason = iota
	// StopDeadline: the Budget.Deadline wall-clock allowance elapsed.
	StopDeadline
	// StopNodeBudget: the Budget.MaxNodes allowance was consumed.
	StopNodeBudget
	// StopMemBudget: the hierarchy walks of the search's
	// generalization cache grew past Budget.MaxCacheBytes during the
	// walk.
	StopMemBudget
	// StopCancelled: Config.Context was cancelled (or hit its own
	// deadline).
	StopCancelled
)

// String names the stop reason for diagnostics and traces.
func (s StopReason) String() string {
	switch s {
	case StopDone:
		return "done"
	case StopDeadline:
		return "deadline"
	case StopNodeBudget:
		return "node-budget"
	case StopMemBudget:
		return "mem-budget"
	case StopCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Partial reports whether the search stopped before completing.
func (s StopReason) Partial() bool { return s != StopDone }

// limiter is the per-search enforcement of Config.Context and
// Config.Budget, held by the one evaluator of a strategy call and so
// shared by all of its walks (Samarati's height probes, Incognito's
// subset passes, the frontier scan). A nil limiter — the common
// unbudgeted case — costs one pointer compare per node, preserving the
// engine's ≤2% disabled-overhead contract.
//
// Node accounting is deliberately split in two: checkpoint (called
// concurrently by workers before claiming a node) covers the
// time-dependent limits, while the node allowance is reserved and
// charged single-threaded at reduction time so that a fixed MaxNodes
// yields byte-identical results at every worker count.
type limiter struct {
	ctx      context.Context
	deadline time.Time // absolute; zero = no deadline
	maxNodes int64     // 0 = unlimited
	used     int64     // nodes consumed; only touched at reduction time
	maxBytes int64     // 0 = unlimited
	mem      func() int64
	rec      *obs.Recorder
	// reason holds the first tripped StopReason (StopDone = running).
	reason atomic.Int32
}

// newLimiter builds the limiter for one strategy call, or nil when
// neither a context nor a budget is configured.
func (c Config) newLimiter() *limiter {
	if c.Context == nil && !c.Budget.active() {
		return nil
	}
	l := &limiter{
		ctx:      c.Context,
		maxNodes: c.Budget.MaxNodes,
		maxBytes: c.Budget.MaxCacheBytes,
		rec:      c.Recorder,
	}
	if c.Budget.Deadline > 0 {
		l.deadline = time.Now().Add(c.Budget.Deadline)
	}
	// Publish the limits to the live-progress gauges up front, so a
	// /progress scrape early in the search already shows the budget's
	// denominator and deadline.
	l.rec.NoteBudgetNodes(0, l.maxNodes)
	l.rec.NoteDeadline(l.deadline)
	return l
}

// attachMem wires the cache-size probe once the evaluator knows its
// cache.
func (l *limiter) attachMem(mem func() int64) {
	if l != nil && l.maxBytes > 0 {
		l.mem = mem
	}
}

// trip publishes the first stop reason; later trips lose.
func (l *limiter) trip(r StopReason) {
	if l == nil {
		return
	}
	if l.reason.CompareAndSwap(int32(StopDone), int32(r)) {
		l.rec.BudgetStop()
	}
}

// tripped reports whether the search has been told to stop.
func (l *limiter) tripped() bool {
	return l != nil && l.reason.Load() != int32(StopDone)
}

// stopReason returns the recorded reason (StopDone while running or
// for a nil limiter).
func (l *limiter) stopReason() StopReason {
	if l == nil {
		return StopDone
	}
	return StopReason(l.reason.Load())
}

// checkpoint is the per-node gate workers pass before evaluating:
// false means stop claiming work. It covers the time-dependent limits
// (cancellation, deadline, cache bytes); the node budget is enforced
// separately via allowance/charge.
func (l *limiter) checkpoint() bool {
	if l == nil {
		return true
	}
	if l.reason.Load() != int32(StopDone) {
		return false
	}
	if l.ctx != nil {
		select {
		case <-l.ctx.Done():
			l.trip(StopCancelled)
			return false
		default:
		}
	}
	if !l.deadline.IsZero() && time.Now().After(l.deadline) {
		l.trip(StopDeadline)
		return false
	}
	if l.maxBytes > 0 && l.mem != nil {
		used := l.mem()
		l.rec.NoteMem(used, l.maxBytes)
		if used > l.maxBytes {
			l.trip(StopMemBudget)
			return false
		}
	}
	return true
}

// allowance caps a batch of n nodes to the remaining node budget.
// Called single-threaded before each engine run.
func (l *limiter) allowance(n int) int {
	if l == nil || l.maxNodes <= 0 {
		return n
	}
	rem := l.maxNodes - l.used
	if rem <= 0 {
		return 0
	}
	if rem < int64(n) {
		return int(rem)
	}
	return n
}

// charge consumes n nodes of the budget. Called single-threaded at
// reduction time with the count of outcomes the reduction consumed, so
// the spend is identical at every worker count.
func (l *limiter) charge(n int) {
	if l != nil {
		l.used += int64(n)
		l.rec.NoteBudgetNodes(l.used, l.maxNodes)
	}
}
