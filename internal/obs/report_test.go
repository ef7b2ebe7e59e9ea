package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket edges: bucket i holds
// samples strictly below histBase<<i, an exact boundary lands in the
// next bucket, and everything at or past the last bound overflows.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0},
		{999, 0},
		{1000, 1}, // exact bound is exclusive below, lands above
		{1999, 1},
		{2000, 2},
		{histBase<<17 - 1, 17},
		{histBase << 17, 18},
		{histBase<<18 - 1, 18},
		{histBase << 18, histBuckets - 1}, // first overflow value
		{int64(time.Hour), histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.bucket {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.bucket)
		}
	}

	var h histogram
	h.observe(-5) // negative clamps to zero
	s := h.snapshot()
	if s.Buckets[0] != 1 || s.SumNs != 0 {
		t.Fatalf("negative observation: %+v", s)
	}
	// UpperNs must mirror the bucket bounds; the overflow bucket reports
	// the true maximum.
	if s.UpperNs(0) != 1000 || s.UpperNs(5) != 1000<<5 {
		t.Fatalf("UpperNs = %d/%d", s.UpperNs(0), s.UpperNs(5))
	}
	h.observe(int64(time.Hour))
	s = h.snapshot()
	if s.UpperNs(histBuckets-1) != int64(time.Hour) {
		t.Fatalf("overflow upper = %d, want observed max", s.UpperNs(histBuckets-1))
	}
}

// TestReportJSONRoundTrip: a fully populated report must survive
// marshal → unmarshal → marshal byte-identically — the stability the
// finalized /metrics byte-match and the -metrics-json consumers rely
// on.
func TestReportJSONRoundTrip(t *testing.T) {
	rec := NewRecorder()
	for v := Verdict(0); v < numVerdicts; v++ {
		rec.NodeEvaluated(v, time.Duration(v+1)*time.Microsecond)
	}
	start := rec.Start()
	rec.PhaseEnd(PhaseGroupBy, start)
	sp := rec.StartSpan(PhaseSearch, nil)
	sp.End()
	rec.CacheWalk(2048)
	rec.CacheLevelMap(true)
	rec.RollupMerge()
	rec.RollupReuse()
	rec.RollupRowScan()
	rec.AddSuppressedRows(3)
	rec.SetPoolSize(4)
	rec.WorkerBusy(2, time.Millisecond)
	rec.BudgetStop()
	rec.GroupsRecheck(12)
	rec.RepairAscent()
	rec.ColdFallback()
	rec.FrontierScored()
	rec.FrontierReduced(1, 1)
	rec.PolicyEval("2-sensitive-3-anonymity", rec.Start(), true)

	rep := rec.Snapshot()
	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip drifted:\nfirst  %s\nsecond %s", first, second)
	}
	if back.Nodes != rep.Nodes || back.Cache != rep.Cache || back.Rollup != rep.Rollup {
		t.Fatal("round-tripped counters differ")
	}
}

// TestProgressGauges: the live gauges must read back exactly what the
// strategies publish.
func TestProgressGauges(t *testing.T) {
	var nilRec *Recorder
	if p := nilRec.Progress(); p != (Progress{}) {
		t.Fatalf("nil progress = %+v", p)
	}

	rec := NewRecorder()
	rec.AddLatticeNodes(100)
	rec.AddLatticeNodes(60) // Incognito: subset lattices sum
	for i := 0; i < 40; i++ {
		rec.NodeEvaluated(VerdictViolated, time.Microsecond)
	}
	rec.NoteBudgetNodes(40, 500)
	deadline := time.Now().Add(time.Minute)
	rec.NoteDeadline(deadline)
	rec.NoteMem(1024, 4096)
	rec.NoteBest("<A2, M1>", 3)
	rec.AddSuppressedRows(9)

	p := rec.Progress()
	if p.NodesEvaluated != 40 || p.LatticeNodes != 160 {
		t.Fatalf("progress counts = %+v", p)
	}
	if p.Fraction != 0.25 {
		t.Fatalf("fraction = %v", p.Fraction)
	}
	if p.BudgetNodesUsed != 40 || p.BudgetNodesMax != 500 {
		t.Fatalf("budget = %d/%d", p.BudgetNodesUsed, p.BudgetNodesMax)
	}
	if p.DeadlineUnixNs != deadline.UnixNano() {
		t.Fatalf("deadline = %d", p.DeadlineUnixNs)
	}
	if p.MemUsedBytes != 1024 || p.MemBudgetBytes != 4096 {
		t.Fatalf("mem = %d/%d", p.MemUsedBytes, p.MemBudgetBytes)
	}
	if p.BestNode != "<A2, M1>" || p.BestHeight != 3 {
		t.Fatalf("best = %q/%d", p.BestNode, p.BestHeight)
	}
	if p.SuppressedRows != 9 {
		t.Fatalf("suppressed = %d", p.SuppressedRows)
	}
	if p.ElapsedNs <= 0 {
		t.Fatalf("elapsed = %d", p.ElapsedNs)
	}
}
