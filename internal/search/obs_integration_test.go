package search

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"psk/internal/obs"
	"psk/internal/table"
)

// The telemetry layer promises to be a pure observer: attaching a
// recorder and tracer must not move a single result byte or stats
// counter, and the counters it reports must themselves be deterministic
// wherever the evaluated node set is (every barrier strategy, any
// worker count). Run with -race to exercise the recorder's atomics
// under the parallel engine.

// TestTelemetryDoesNotChangeResults: for every strategy, serial and
// parallel, a run with recorder+tracer attached must be byte-identical
// to the plain run.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for _, ts := range []int{0, 4, 10} {
			for _, w := range []int{0, 4} {
				base := kOnlyConfig(t, ts)
				base.P = p
				base.Workers = w
				observed := base
				observed.Recorder = obs.NewRecorder()
				observed.Tracer = obs.NewTracer(&bytes.Buffer{})
				name := fmt.Sprintf("p=%d/TS=%d/w=%d", p, ts, w)

				for s := range numStrategies {
					a, err := Run(tbl, base, s)
					if err != nil {
						t.Fatal(err)
					}
					b, err := Run(tbl, observed, s)
					if err != nil {
						t.Fatal(err)
					}
					if fmtResult(a) != fmtResult(b) {
						t.Errorf("%s: telemetry changed the %s outcome", name, s)
					}
					if a.Report != nil || b.Report == nil {
						t.Errorf("%s: %s reports: unobserved %v, observed %v", name, s, a.Report != nil, b.Report != nil)
					}
				}
			}
		}
	}
}

// TestTelemetryDeterministicCounters: for the barrier strategies (whose
// evaluated node set cannot depend on scheduling), the deterministic
// counter view must be identical between the serial run and any
// parallel run.
func TestTelemetryDeterministicCounters(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for _, ts := range []int{0, 4, 10} {
			base := kOnlyConfig(t, ts)
			base.P = p
			for _, s := range []Strategy{StrategyExhaustive, StrategyBottomUp, StrategyAllMinimal, StrategyIncognito} {
				serial := base
				serial.Recorder = obs.NewRecorder()
				rS, err := Run(tbl, serial, s)
				if err != nil {
					t.Fatal(err)
				}
				repS := rS.Report
				for _, w := range []int{2, 8} {
					par := base
					par.Workers = w
					par.Recorder = obs.NewRecorder()
					rP, err := Run(tbl, par, s)
					if err != nil {
						t.Fatal(err)
					}
					repP := rP.Report
					if !reflect.DeepEqual(repS.DeterministicCounters(), repP.DeterministicCounters()) {
						t.Errorf("p=%d TS=%d %s w=%d: counters diverged\nserial:   %v\nparallel: %v",
							p, ts, s, w, repS.DeterministicCounters(), repP.DeterministicCounters())
					}
				}
			}
		}
	}
}

// TestTraceCountMatchesNodesEvaluated: at one worker, every strategy
// emits one JSONL event per evaluated node — no more, no fewer; a
// Samarati probe evaluates nothing past its hit — and the trace parses
// back with a verdict breakdown matching the report's.
func TestTraceCountMatchesNodesEvaluated(t *testing.T) {
	tbl := figure3Table(t)
	for _, ts := range []int{0, 2, 4, 10} {
		for s := range numStrategies {
			traceCountMatches(t, tbl, s, ts)
		}
	}
}

func traceCountMatches(t *testing.T, tbl *table.Table, s Strategy, ts int) {
	t.Helper()
	cfg := kOnlyConfig(t, ts)
	cfg.P = 2
	cfg.Recorder = obs.NewRecorder()
	var buf bytes.Buffer
	cfg.Tracer = obs.NewTracer(&buf)

	res, err := Run(tbl, cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("%s TS=%d: trace does not parse: %v", s, ts, err)
	}
	if len(events) != res.Stats.NodesEvaluated {
		t.Errorf("%s TS=%d: %d trace events, %d nodes evaluated", s, ts, len(events), res.Stats.NodesEvaluated)
	}
	if got := cfg.Tracer.Events(); got != int64(len(events)) {
		t.Errorf("%s TS=%d: Events() = %d, parsed %d", s, ts, got, len(events))
	}
	byVerdict := map[string]int64{}
	for _, ev := range events {
		byVerdict[ev.Verdict]++
		if ev.Worker != 0 {
			t.Errorf("%s TS=%d: serial trace event on worker %d", s, ts, ev.Worker)
		}
		if ev.DurationNs < 0 {
			t.Errorf("%s TS=%d: negative duration %d", s, ts, ev.DurationNs)
		}
	}
	rep := res.Report
	want := map[string]int64{
		obs.VerdictSatisfied.String():        rep.Nodes.Satisfied,
		obs.VerdictViolated.String():         rep.Nodes.Violated,
		obs.VerdictPrunedCondition1.String(): rep.Nodes.PrunedCondition1,
		obs.VerdictPrunedCondition2.String(): rep.Nodes.PrunedCondition2,
		obs.VerdictOverBudget.String():       rep.Nodes.OverBudget,
		obs.VerdictError.String():            rep.Nodes.Errors,
	}
	for v, n := range want {
		if n == 0 {
			delete(want, v)
		}
	}
	if !reflect.DeepEqual(byVerdict, want) {
		t.Errorf("%s TS=%d: trace verdicts %v, report %v", s, ts, byVerdict, want)
	}
}
