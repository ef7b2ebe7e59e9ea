package obs

import (
	"sync"
	"time"
)

// Sample is one timestamped snapshot of Recorder deltas: the rates a
// live dashboard wants (nodes/sec, roll-up reuse) plus the gauges that
// bound them (cache bytes, memory-budget headroom).
// Rates are computed over the interval since the previous sample, so a
// flat-lining NodesPerSec during a long run is visible immediately
// instead of being averaged away by cumulative counters.
type Sample struct {
	// AtNs is the sample's offset from the sampler's start.
	AtNs int64 `json:"at_ns"`
	// Nodes is the cumulative node-evaluation count at sample time.
	Nodes int64 `json:"nodes"`
	// NodesPerSec is the evaluation rate over the sampling interval.
	NodesPerSec float64 `json:"nodes_per_sec"`
	// RollupReuseRate is the fraction of interval stats lookups served
	// without a row scan (merges + reuses over all three sources).
	RollupReuseRate float64 `json:"rollup_reuse_rate"`
	// CacheBytes is the cumulative estimated bytes of built hierarchy
	// walks.
	CacheBytes int64 `json:"cache_bytes"`
	// MemUsedBytes / MemBudgetBytes mirror the cache-memory budget
	// gauges; MemHeadroom is 1 - used/budget (1 when unbudgeted).
	MemUsedBytes   int64   `json:"mem_used_bytes"`
	MemBudgetBytes int64   `json:"mem_budget_bytes"`
	MemHeadroom    float64 `json:"mem_headroom"`
	// Suppressed is the cumulative suppressed-row count.
	Suppressed int64 `json:"suppressed"`
}

// samplerView is the cumulative counter set a rate is computed from.
type samplerView struct {
	atNs                       int64
	nodes                      int64
	merges, reuses, scans      int64
	walkBytes, memUsed, memMax int64
	suppressed                 int64
}

// Sampler periodically snapshots a Recorder into a fixed-size ring
// buffer of Samples — the time-series half of the live observatory.
// The ring keeps the most recent Cap samples; older ones are
// overwritten, so memory is constant no matter how long a search runs.
// A nil *Sampler is disabled (every method no-ops), mirroring the
// Recorder convention, and an idle Sampler costs the search nothing:
// sampling reads a dozen atomics on its own goroutine at the configured
// cadence and never touches any search structure.
type Sampler struct {
	rec      *Recorder
	interval time.Duration

	mu    sync.Mutex
	ring  []Sample
	total int // samples ever taken; ring[total % cap] is the next slot
	prev  samplerView
	epoch time.Time

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over rec taking one sample per interval
// into a ring of capacity entries. interval <= 0 defaults to 250ms,
// capacity <= 0 to 512. A nil rec yields a nil (disabled) sampler.
func NewSampler(rec *Recorder, interval time.Duration, capacity int) *Sampler {
	if rec == nil {
		return nil
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	if capacity <= 0 {
		capacity = 512
	}
	return &Sampler{
		rec:      rec,
		interval: interval,
		ring:     make([]Sample, 0, capacity),
		epoch:    time.Now(),
	}
}

// Start launches the sampling ticker. Safe to call once; Stop ends it.
// Starting a nil or already-started sampler is a no-op.
func (s *Sampler) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Poll()
			}
		}
	}()
}

// Stop halts the ticker and waits for the sampling goroutine to exit.
// The ring stays readable after Stop.
func (s *Sampler) Stop() {
	if s == nil || s.stop == nil {
		return
	}
	select {
	case <-s.stop: // already stopped
	default:
		close(s.stop)
	}
	<-s.done
}

// Poll takes one sample immediately (the ticker calls it; tests and
// dump-on-demand paths may too).
func (s *Sampler) Poll() {
	if s == nil {
		return
	}
	r := s.rec
	cur := samplerView{
		atNs:       time.Since(s.epoch).Nanoseconds(),
		merges:     r.rollupMerges.Load(),
		reuses:     r.rollupReuses.Load(),
		scans:      r.rollupScans.Load(),
		walkBytes:  r.walkBytes.Load(),
		memUsed:    r.memUsed.Load(),
		memMax:     r.memBudget.Load(),
		suppressed: r.suppressedRows.Load(),
	}
	for v := Verdict(0); v < numVerdicts; v++ {
		cur.nodes += r.verdicts[v].Load()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.prev
	s.prev = cur

	smp := Sample{
		AtNs:           cur.atNs,
		Nodes:          cur.nodes,
		CacheBytes:     cur.walkBytes,
		MemUsedBytes:   cur.memUsed,
		MemBudgetBytes: cur.memMax,
		MemHeadroom:    1,
		Suppressed:     cur.suppressed,
	}
	if dt := cur.atNs - prev.atNs; dt > 0 {
		smp.NodesPerSec = float64(cur.nodes-prev.nodes) / (float64(dt) / 1e9)
	}
	warm := (cur.merges - prev.merges) + (cur.reuses - prev.reuses)
	if tot := warm + (cur.scans - prev.scans); tot > 0 {
		smp.RollupReuseRate = float64(warm) / float64(tot)
	}
	if cur.memMax > 0 {
		smp.MemHeadroom = 1 - float64(cur.memUsed)/float64(cur.memMax)
	}

	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, smp)
	} else {
		s.ring[s.total%cap(s.ring)] = smp
	}
	s.total++
}

// Samples returns the retained window in chronological order (a copy;
// at most the ring capacity, the most recent samples winning).
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.ring))
	if s.total <= len(s.ring) {
		return append(out, s.ring...)
	}
	// Ring full and wrapped: oldest retained sample sits at total % cap.
	start := s.total % cap(s.ring)
	out = append(out, s.ring[start:]...)
	return append(out, s.ring[:start]...)
}

// Total reports how many samples were ever taken (>= len(Samples())).
func (s *Sampler) Total() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Interval reports the sampling cadence.
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}
