package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderIsNoOp: the disabled implementation — the nil
// *Recorder a search carries when telemetry is off — must be callable
// through every exported method without panicking, without reading the
// clock and without allocating. This pins the zero-cost half of the
// package's overhead budget; bench.trace_overhead_pct measures the
// cost of an attached recorder.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	// Adding a method to *Recorder must add its call below.
	if n := reflect.TypeOf(r).NumMethod(); n != 30 {
		t.Fatalf("*Recorder has %d exported methods, the calls below cover 30", n)
	}
	calls := func() {
		t0 := r.Start()
		r.Enabled()
		r.PhaseEnd(PhasePolicy, t0)
		r.NodeEvaluated(VerdictSatisfied, time.Millisecond)
		r.WorkerBusy(3, time.Millisecond)
		r.SetPoolSize(8)
		r.CacheColumn(true, 0)
		r.CacheColumn(false, 100)
		r.CacheWalk(100)
		r.CacheLevelMap(true)
		r.RollupMerge()
		r.RollupReuse()
		r.RollupRowScan()
		r.AddSuppressedRows(5)
		r.BudgetStop()
		r.PanicRecovered()
		r.GroupsRecheck(4)
		r.RepairAscent()
		r.ColdFallback()
		r.FrontierScored()
		r.FrontierCutSkip()
		r.FrontierReduced(6, 2)
		root := r.StartSpan(PhaseSearch, nil)
		child := r.StartSpan(PhaseRollup, &root)
		child.End()
		root.End()
		r.AddLatticeNodes(12)
		r.NoteBudgetNodes(3, 10)
		r.NoteDeadline(t0.Add(time.Second))
		r.NoteMem(1<<20, 1<<30)
		r.NoteBest("<1,0>", 1)
		r.PolicyEval("p", t0, true)
		r.Snapshot()
		r.Progress()
	}
	if allocs := testing.AllocsPerRun(100, calls); allocs != 0 {
		t.Errorf("nil recorder allocated %v times per call sequence, want 0", allocs)
	}
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if t0 := r.Start(); !t0.IsZero() {
		t.Fatal("nil recorder touched the clock")
	}
	if rep := r.Snapshot(); rep != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", rep)
	}
	if p := r.Progress(); p != (Progress{}) {
		t.Fatalf("nil recorder progress = %+v, want zero", p)
	}
}

func TestRecorderCounters(t *testing.T) {
	r := NewRecorder()
	r.NodeEvaluated(VerdictSatisfied, 2*time.Microsecond)
	r.NodeEvaluated(VerdictViolated, 10*time.Microsecond)
	r.NodeEvaluated(VerdictPrunedCondition2, time.Microsecond)
	r.NodeEvaluated(VerdictOverBudget, time.Microsecond)
	r.CacheColumn(false, 4096)
	r.CacheColumn(true, 0)
	r.CacheColumn(true, 0)
	r.CacheWalk(512) // bytes only, no column access
	r.CacheLevelMap(false)
	r.CacheLevelMap(true)
	r.RollupMerge()
	r.RollupMerge()
	r.RollupRowScan()
	r.AddSuppressedRows(7)
	r.SetPoolSize(4)
	r.SetPoolSize(2) // gauge keeps the max
	r.WorkerBusy(1, time.Millisecond)
	start := r.Start()
	r.PhaseEnd(PhasePolicy, start)
	r.PolicyEval("3-anonymity", start, true)
	r.PolicyEval("3-anonymity", start, false)

	rep := r.Snapshot()
	if rep.Nodes.Evaluated != 4 || rep.Nodes.Satisfied != 1 || rep.Nodes.Violated != 1 ||
		rep.Nodes.PrunedCondition2 != 1 || rep.Nodes.OverBudget != 1 {
		t.Fatalf("node counts = %+v", rep.Nodes)
	}
	if got := rep.Nodes.PruneRate(); got != 0.5 {
		t.Fatalf("prune rate = %v, want 0.5", got)
	}
	if rep.Cache.Hits != 2 || rep.Cache.Misses != 1 || rep.Cache.Bytes != 4096+512 {
		t.Fatalf("cache = %+v", rep.Cache)
	}
	if rep.Cache.MapHits != 1 || rep.Cache.MapMisses != 1 {
		t.Fatalf("map cache = %+v", rep.Cache)
	}
	if rep.Rollup.Merges != 2 || rep.Rollup.RowScans != 1 {
		t.Fatalf("rollup = %+v", rep.Rollup)
	}
	if rep.SuppressedRows != 7 {
		t.Fatalf("suppressed = %d", rep.SuppressedRows)
	}
	if rep.PoolSize != 4 {
		t.Fatalf("pool = %d, want max-observed 4", rep.PoolSize)
	}
	if len(rep.Policies) != 1 || rep.Policies[0].Count != 2 || rep.Policies[0].Satisfied != 1 {
		t.Fatalf("policies = %+v", rep.Policies)
	}
	if len(rep.Workers) != 1 || rep.Workers[0].ID != 1 {
		t.Fatalf("workers = %+v", rep.Workers)
	}
	if rep.NodeLatency.Count != 4 || rep.NodeLatency.MaxNs != 10_000 {
		t.Fatalf("latency = %+v", rep.NodeLatency)
	}
	// The report must render and marshal.
	if s := rep.String(); !strings.Contains(s, "nodes evaluated: 4") {
		t.Fatalf("report string:\n%s", s)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderConcurrency hammers one recorder from many goroutines;
// run with -race. Totals must be exact: atomics may not drop updates.
func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.NodeEvaluated(Verdict(i%int(numVerdicts)), time.Duration(i)*time.Microsecond)
				r.CacheColumn(i%2 == 0, 8)
				r.RollupMerge()
				r.AddSuppressedRows(1)
				r.WorkerBusy(w, time.Microsecond)
				r.PolicyEval("p", r.Start(), i%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	rep := r.Snapshot()
	if rep.Nodes.Evaluated != workers*per {
		t.Fatalf("evaluated = %d, want %d", rep.Nodes.Evaluated, workers*per)
	}
	if rep.Rollup.Merges != workers*per || rep.SuppressedRows != workers*per {
		t.Fatalf("merges/suppressed = %d/%d", rep.Rollup.Merges, rep.SuppressedRows)
	}
	if got := rep.Cache.Hits + rep.Cache.Misses; got != workers*per {
		t.Fatalf("cache accesses = %d", got)
	}
	if rep.Policies[0].Count != workers*per {
		t.Fatalf("policy evals = %d", rep.Policies[0].Count)
	}
	if len(rep.Workers) != workers {
		t.Fatalf("worker rows = %d", len(rep.Workers))
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	h.observe(500)              // < 1µs -> bucket 0
	h.observe(1500)             // bucket 1
	h.observe(int64(time.Hour)) // overflow
	s := h.snapshot()
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if s.QuantileNs(1.0) != s.MaxNs {
		t.Fatalf("q100 = %d, want max %d", s.QuantileNs(1.0), s.MaxNs)
	}
	if s.QuantileNs(0.34) != 1000 {
		t.Fatalf("q34 = %d, want 1000 (bucket-0 upper bound)", s.QuantileNs(0.34))
	}
	if s.QuantileNs(0.67) != 2000 {
		t.Fatalf("q67 = %d, want 2000 (bucket-1 upper bound)", s.QuantileNs(0.67))
	}
}

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	want := []Event{
		{Node: []int{1, 0, 2}, Height: 3, Verdict: "satisfied", DurationNs: 1234, Worker: 0},
		{Node: []int{0, 0, 0}, Height: 0, Verdict: "over-budget", DurationNs: 99, Worker: 2},
	}
	for _, ev := range want {
		tr.Emit(ev)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != int64(len(want)) {
		t.Fatalf("events = %d", tr.Events())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(want) {
		t.Fatalf("lines = %d, want %d", lines, len(want))
	}
	got, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events", len(got))
	}
	for i := range want {
		if got[i].Verdict != want[i].Verdict || got[i].Height != want[i].Height ||
			got[i].DurationNs != want[i].DurationNs || got[i].Worker != want[i].Worker ||
			len(got[i].Node) != len(want[i].Node) {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	var nilTracer *Tracer
	nilTracer.Emit(Event{})
	if nilTracer.Events() != 0 || nilTracer.Flush() != nil {
		t.Fatal("nil tracer misbehaved")
	}
}
