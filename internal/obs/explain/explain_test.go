package explain

import (
	"bytes"
	"strings"
	"testing"

	"psk/internal/obs"
)

// trace builds a JSONL stream from events via the real tracer.
func trace(t *testing.T, events []obs.Event) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	for _, ev := range events {
		tr.Emit(ev)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func testEvents() []obs.Event {
	return []obs.Event{
		{Node: []int{0, 0}, Height: 0, Verdict: "pruned-condition1", DurationNs: 100, AtNs: 10},
		{Node: []int{1, 0}, Height: 1, Verdict: "pruned-condition2", DurationNs: 200, AtNs: 20},
		{Node: []int{0, 1}, Height: 1, Verdict: "over-budget", DurationNs: 300, AtNs: 30},
		{Node: []int{1, 1}, Height: 2, Verdict: "violated", DurationNs: 400, AtNs: 40},
		{Node: []int{2, 1}, Height: 3, Verdict: "satisfied", DurationNs: 500, AtNs: 50},
	}
}

func testReport() *obs.Report {
	return &obs.Report{Nodes: obs.NodeCounts{
		Evaluated: 5, Satisfied: 1, Violated: 1,
		PrunedCondition1: 1, PrunedCondition2: 1, OverBudget: 1,
	}}
}

func TestAuditLevelsAndTimeline(t *testing.T) {
	a, err := FromReader(trace(t, testEvents()), testReport())
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != 5 || a.SchemaVersion != obs.TraceSchemaVersion {
		t.Fatalf("events/schema = %d/v%d", a.Events, a.SchemaVersion)
	}
	if len(a.Levels) != 4 {
		t.Fatalf("levels = %d", len(a.Levels))
	}
	l1 := a.Levels[1]
	if l1.Height != 1 || l1.Evaluated != 2 || l1.PrunedCondition2 != 1 || l1.OverBudget != 1 {
		t.Fatalf("level 1 = %+v", l1)
	}
	if l1.PruneRate() != 1.0 {
		t.Fatalf("level-1 prune rate = %v", l1.PruneRate())
	}
	if l1.WallNs != 500 {
		t.Fatalf("level-1 wall = %d", l1.WallNs)
	}
	l2 := a.Levels[2]
	if l2.Scanned != 1 || l2.Violated != 1 {
		t.Fatalf("level 2 = %+v", l2)
	}
	if len(a.Timeline) != 5 {
		t.Fatalf("timeline = %d points", len(a.Timeline))
	}
	last := a.Timeline[len(a.Timeline)-1]
	if last.Nodes != 5 || last.AtNs != 50 || last.WallNs != 1500 {
		t.Fatalf("timeline end = %+v", last)
	}
	for i := 1; i < len(a.Timeline); i++ {
		if a.Timeline[i].AtNs < a.Timeline[i-1].AtNs || a.Timeline[i].Nodes <= a.Timeline[i-1].Nodes {
			t.Fatalf("timeline not monotone at %d", i)
		}
	}
}

// TestAuditReconcileMismatch: a report from a different run must be
// rejected, not silently tabulated.
func TestAuditReconcileMismatch(t *testing.T) {
	rep := testReport()
	rep.Nodes.Satisfied = 2
	rep.Nodes.Evaluated = 6
	if _, err := FromReader(trace(t, testEvents()), rep); err == nil {
		t.Fatal("mismatched report reconciled")
	}
}

// TestAuditNoReport: a nil report skips reconciliation but still
// builds the attribution.
func TestAuditNoReport(t *testing.T) {
	a, err := FromReader(trace(t, testEvents()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Totals(); got.Evaluated != 5 {
		t.Fatalf("totals = %+v", got)
	}
	if err := a.Reconcile(); err == nil {
		t.Fatal("Reconcile without a report must error")
	}
}

// TestAuditV1Trace: events without schema_version/at_ns (a pre-version
// trace) fall back to cumulative wall time as the timeline coordinate.
func TestAuditV1Trace(t *testing.T) {
	v1 := strings.NewReader(
		`{"node":[0,0],"height":0,"verdict":"violated","duration_ns":100,"worker":0}` + "\n" +
			`{"node":[1,0],"height":1,"verdict":"satisfied","duration_ns":200,"worker":0}` + "\n")
	a, err := FromReader(v1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.SchemaVersion != 0 {
		t.Fatalf("schema = %d, want 0 (v1)", a.SchemaVersion)
	}
	if len(a.Timeline) != 2 || a.Timeline[0].AtNs != 100 || a.Timeline[1].AtNs != 300 {
		t.Fatalf("v1 timeline = %+v", a.Timeline)
	}
}

func TestAuditUnknownVerdict(t *testing.T) {
	bad := strings.NewReader(`{"node":[0],"height":0,"verdict":"maybe","duration_ns":1}` + "\n")
	if _, err := FromReader(bad, nil); err == nil {
		t.Fatal("unknown verdict accepted")
	}
}

// TestAuditDownsample: a long trace's timeline must stay bounded and
// keep the final point.
func TestAuditDownsample(t *testing.T) {
	var events []obs.Event
	for i := 0; i < 3000; i++ {
		events = append(events, obs.Event{
			Node: []int{i}, Height: i % 7, Verdict: "violated",
			DurationNs: 10, AtNs: int64(i + 1),
		})
	}
	a, err := FromReader(trace(t, events), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Timeline) > 2*timelinePoints {
		t.Fatalf("timeline = %d points, cap %d", len(a.Timeline), 2*timelinePoints)
	}
	last := a.Timeline[len(a.Timeline)-1]
	if last.Nodes != 3000 || last.AtNs != 3000 {
		t.Fatalf("final point = %+v", last)
	}
}

// TestWriteText: the human rendering must include the level table, the
// timeline and the efficiency block, and String must match it.
func TestWriteText(t *testing.T) {
	rep := testReport()
	rep.Cache = obs.CacheStats{Bytes: 4096, MapHits: 3, MapMisses: 1}
	rep.Rollup = obs.RollupStats{Merges: 2, Reuses: 1, RowScans: 1}
	a, err := FromReader(trace(t, testEvents()), rep)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := a.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"5 trace events (schema v2)",
		"prune attribution by lattice level:",
		"budget consumption timeline:",
		"hierarchy walks: ~4 KiB built; level maps: 3 hits, 1 misses",
		"75.0% scans avoided",
		"total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
	if a.String() != out {
		t.Fatal("String differs from WriteText")
	}

	var js bytes.Buffer
	if err := a.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"schema_version": 2`) {
		t.Fatal("WriteJSON missing schema_version")
	}
}
