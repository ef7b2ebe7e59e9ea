package search

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/obs"
	"psk/internal/table"
)

// adultSample returns a generated Adult-shaped table with the standard
// QI/confidential configuration the budget tests search over.
func adultSample(t testing.TB, n int) (*table.Table, Config) {
	t.Helper()
	src, err := dataset.Generate(n, 2006)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             3,
		P:             2,
		MaxSuppress:   10,
		UseConditions: true,
	}
	return src, cfg
}

// TestCancelReturnsQuickly pins the tentpole latency contract: after
// Config.Context is cancelled mid-search on Adult, every strategy
// returns within 100ms, with a valid tagged partial result.
func TestCancelReturnsQuickly(t *testing.T) {
	src, base := adultSample(t, 4000)
	for s := range numStrategies {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", s, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := base
				cfg.Context = ctx
				cfg.Workers = workers

				type done struct {
					Result
					err error
					at  time.Time
				}
				ch := make(chan done, 1)
				go func() {
					r, err := Run(src, cfg, s)
					ch <- done{r, err, time.Now()}
				}()
				// Let the search get going, then pull the plug.
				time.Sleep(10 * time.Millisecond)
				cancelled := time.Now()
				cancel()
				d := <-ch
				if d.err != nil {
					t.Fatalf("search error: %v", d.err)
				}
				if lag := d.at.Sub(cancelled); lag > 100*time.Millisecond {
					t.Fatalf("returned %v after cancel; want <= 100ms", lag)
				}
				if d.StopReason != StopCancelled && d.StopReason != StopDone {
					t.Fatalf("stop reason %v, want cancelled or done", d.StopReason)
				}
				// Whatever was found must be genuinely satisfying.
				for _, m := range d.Minimal {
					ok, err := core.CheckBasic(m.Masked, cfg.QIs, cfg.Confidential, cfg.P, cfg.K)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("partial result node %v not satisfying", m.Node)
					}
				}
			})
		}
	}
}

// TestNodeBudgetDeterministic pins the tentpole determinism contract:
// for a fixed MaxNodes the partial result — found nodes, masked bytes,
// stats, stop reason — is byte-identical serial vs parallel on every
// strategy.
func TestNodeBudgetDeterministic(t *testing.T) {
	tbl := figure3Table(t)
	for s := range numStrategies {
		for _, maxNodes := range []int64{1, 2, 3, 5, 8, 13, 21} {
			t.Run(fmt.Sprintf("%s/n%d", s, maxNodes), func(t *testing.T) {
				cfg := kOnlyConfig(t, 2)
				cfg.P, cfg.Confidential = 2, []string{"Illness"}
				cfg.Budget.MaxNodes = maxNodes

				serialCfg := cfg
				serialCfg.Workers = 1
				want, err := Run(tbl, serialCfg, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 8} {
					parCfg := cfg
					parCfg.Workers = workers
					got, err := Run(tbl, parCfg, s)
					if err != nil {
						t.Fatal(err)
					}
					if fmtResult(got) != fmtResult(want) {
						t.Fatalf("w%d:\n%s\nserial:\n%s", workers, fmtResult(got), fmtResult(want))
					}
				}
			})
		}
	}
}

// TestNodeBudgetExhausts pins the budget arithmetic itself: an
// Exhaustive search with MaxNodes below the lattice size consumes
// exactly the budget and reports StopNodeBudget; with the budget at or
// above the lattice size it completes with StopDone.
func TestNodeBudgetExhausts(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 2)
	lat := 6 // (1+1) * (2+1) nodes in the Figure 3 lattice

	cfg.Budget.MaxNodes = 4
	r, err := Run(tbl, cfg, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopNodeBudget {
		t.Fatalf("stop reason %v, want node-budget", r.StopReason)
	}
	if r.Stats.NodesEvaluated != 4 {
		t.Fatalf("evaluated %d nodes on a budget of 4", r.Stats.NodesEvaluated)
	}

	cfg.Budget.MaxNodes = int64(lat)
	r, err = Run(tbl, cfg, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopDone {
		t.Fatalf("stop reason %v with budget == lattice size, want done", r.StopReason)
	}
	if r.Stats.NodesEvaluated != lat {
		t.Fatalf("evaluated %d of %d nodes", r.Stats.NodesEvaluated, lat)
	}
}

// TestDeadlineStops pins Budget.Deadline: an already-expired deadline
// stops every strategy before it evaluates a single node, without an
// error, and the recorder counts one budget stop.
func TestDeadlineStops(t *testing.T) {
	tbl := figure3Table(t)
	for s := range numStrategies {
		t.Run(s.String(), func(t *testing.T) {
			cfg := kOnlyConfig(t, 2)
			cfg.Budget.Deadline = time.Nanosecond
			cfg.Recorder = obs.NewRecorder()
			time.Sleep(time.Millisecond) // guarantee expiry
			r, err := Run(tbl, cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			if r.StopReason != StopDeadline {
				t.Fatalf("stop reason %v, want deadline", r.StopReason)
			}
			if r.Stats.NodesEvaluated != 0 || len(r.Minimal) != 0 {
				t.Fatalf("expired deadline evaluated %d nodes, found %d", r.Stats.NodesEvaluated, len(r.Minimal))
			}
			if rep := cfg.Recorder.Snapshot(); rep.BudgetStops != 1 {
				t.Fatalf("BudgetStops = %d, want 1", rep.BudgetStops)
			}
		})
	}
}

// TestPreCancelledContext pins StopCancelled precedence: a context
// cancelled before the search starts stops it at the first checkpoint.
func TestPreCancelledContext(t *testing.T) {
	tbl := figure3Table(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := kOnlyConfig(t, 2)
	cfg.Context = ctx
	r, err := Run(tbl, cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopCancelled {
		t.Fatalf("stop reason %v, want cancelled", r.StopReason)
	}
	if r.Found || r.Stats.NodesEvaluated != 0 {
		t.Fatalf("pre-cancelled search evaluated %d nodes, found=%v", r.Stats.NodesEvaluated, r.Found)
	}
}

// TestMemBudgetStops pins Budget.MaxCacheBytes: a 1-byte cap trips
// StopMemBudget as soon as the first generalized column lands in the
// cache, and the search still returns cleanly.
func TestMemBudgetStops(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 2)
	cfg.Budget.MaxCacheBytes = 1
	r, err := Run(tbl, cfg, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopMemBudget {
		t.Fatalf("stop reason %v, want mem-budget", r.StopReason)
	}
	// The bottom node generalizes nothing, so at least it evaluates;
	// the cap must bite before the full lattice does.
	if r.Stats.NodesEvaluated == 0 || r.Stats.NodesEvaluated >= 6 {
		t.Fatalf("evaluated %d nodes under a 1-byte cache cap", r.Stats.NodesEvaluated)
	}
}

// panicPolicy is a deliberately broken custom policy: it panics on
// every evaluation, standing in for a buggy user Policy.
type panicPolicy struct{}

func (panicPolicy) Name() string        { return "panic-policy" }
func (panicPolicy) ConfAttrs() []string { return nil }
func (panicPolicy) Evaluate(core.StatsView) (core.Result, error) {
	panic("deliberate test panic")
}

// TestWorkerPanicRecovered pins the tentpole resilience contract: a
// panicking node evaluation surfaces as an error (not a crash) on
// every strategy at several worker counts, the recorder counts the
// recoveries, and the same table remains searchable afterwards.
func TestWorkerPanicRecovered(t *testing.T) {
	tbl := figure3Table(t)
	for s := range numStrategies {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", s, workers), func(t *testing.T) {
				cfg := kOnlyConfig(t, 2)
				cfg.Policy = panicPolicy{}
				cfg.Workers = workers
				cfg.Recorder = obs.NewRecorder()
				_, err := Run(tbl, cfg, s)
				if err == nil {
					t.Fatal("panicking policy produced no error")
				}
				if !strings.Contains(err.Error(), "panic recovered") {
					t.Fatalf("error %q does not mention the recovered panic", err)
				}
				if rep := cfg.Recorder.Snapshot(); rep.PanicsRecovered == 0 {
					t.Fatal("PanicsRecovered = 0 after a recovered panic")
				}

				// The search machinery must still be usable: same table,
				// sane config, fresh run.
				good := kOnlyConfig(t, 2)
				good.Workers = workers
				if r, err := Run(tbl, good, s); err != nil || r.StopReason != StopDone || !r.Found {
					t.Fatalf("follow-up search: err=%v reason=%v found=%v", err, r.StopReason, r.Found)
				}
			})
		}
	}
}

// TestBudgetlessPathUnchanged guards the facade contract that the
// budget machinery is invisible when unused: no limiter is built and
// results carry StopDone.
func TestBudgetlessPathUnchanged(t *testing.T) {
	if (Config{}).newLimiter() != nil {
		t.Fatal("zero config built a limiter")
	}
	tbl := figure3Table(t)
	r, err := Run(tbl, kOnlyConfig(t, 2), StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopDone {
		t.Fatalf("unbudgeted search stop reason %v", r.StopReason)
	}
	if StopDone.Partial() || !StopCancelled.Partial() {
		t.Fatal("Partial() misclassifies")
	}
}
