package search

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"psk/internal/dataset"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// tracedRun runs the strategy with a tracer and returns the result and
// the trace's events.
func tracedRun(t *testing.T, im *table.Table, cfg Config, s Strategy) (Result, []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Tracer = obs.NewTracer(&buf)
	res, err := Run(im, cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// TestIncognitoJudgesEachGroupingOnce: Incognito's subset passes run on
// the search's one evaluator, so a subset node whose grouping the full
// lattice holds shares that node's judgement. On TestIncognitoOnAdult's
// sample, where every hierarchy's top is "*", no grouping is traced
// twice, the trace holds one event per node evaluated, and the search
// evaluates no more nodes than the lattice has.
func TestIncognitoJudgesEachGroupingOnce(t *testing.T) {
	src, err := dataset.Generate(5000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	im, err := src.Sample(400, 17)
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
		MaxSuppress:   8,
		UseConditions: true,
	}
	dims, err := hs.Heights(cfg.QIs)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lattice.New(dims)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		cfg.Workers = w
		res, events := tracedRun(t, im, cfg, StrategyIncognito)
		if len(events) != res.Stats.NodesEvaluated {
			t.Errorf("w=%d: %d trace events, %d nodes evaluated", w, len(events), res.Stats.NodesEvaluated)
		}
		seen := make(map[string]bool)
		for _, ev := range events {
			key := lattice.Node(ev.Node).Key()
			if seen[key] {
				t.Errorf("w=%d: grouping %v judged twice", w, ev.Node)
			}
			seen[key] = true
			if !lat.Contains(ev.Node) {
				t.Errorf("w=%d: traced node %v outside the lattice, though every top holds one value", w, ev.Node)
			}
		}
		if res.Stats.NodesEvaluated > lat.Size() {
			t.Errorf("w=%d: %d nodes evaluated over a %d-node lattice", w, res.Stats.NodesEvaluated, lat.Size())
		}
		if res.Stats.SubsetsEvaluated != 15 {
			t.Errorf("w=%d: %d subsets evaluated, want 15", w, res.Stats.SubsetsEvaluated)
		}
	}
}

// TestIncognitoDropsManyValuedTops: where a hierarchy's top level holds
// several values (a Prefix with fewer steps than digits), a subset that
// leaves the attribute out is judged at the attribute's dropped level,
// one above the top, outside the lattice. Incognito must still return
// Exhaustive's minimal set, serially and on four workers, and each
// grouping must still be traced once.
func TestIncognitoDropsManyValuedTops(t *testing.T) {
	tbl, cfg := randomSearchFixture(t, rand.New(rand.NewSource(11)), 300)
	zip, err := hierarchy.NewPrefix("Zip", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	age, err := hierarchy.NewPrefix("Age", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sex := hierarchy.NewFlat("Sex")
	cfg.Hierarchies, err = hierarchy.NewSet(zip, age, sex)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{1, 1, 1}
	dropped := 0
	for _, k := range []int{2, 4, 8} {
		for _, p := range []int{1, 2} {
			for _, ts := range []int{0, 6} {
				cfg.K, cfg.P, cfg.MaxSuppress, cfg.UseConditions = k, p, ts, true
				name := fmt.Sprintf("K=%d P=%d TS=%d", k, p, ts)
				ex, err := Run(tbl, cfg, StrategyExhaustive)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 4} {
					cfg.Workers = w
					inc, events := tracedRun(t, tbl, cfg, StrategyIncognito)
					if got, want := fmtMinimal(inc.Minimal), fmtMinimal(sortedMinimal(ex.Minimal)); got != want {
						t.Errorf("%s w=%d: incognito minimal %s, exhaustive %s", name, w, got, want)
					}
					seen := make(map[string]bool)
					for _, ev := range events {
						key := lattice.Node(ev.Node).Key()
						if seen[key] {
							t.Errorf("%s w=%d: grouping %v judged twice", name, w, ev.Node)
						}
						seen[key] = true
						for i, l := range ev.Node {
							if l > dims[i] {
								dropped++
							}
						}
					}
				}
				cfg.Workers = 0
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no subset node was judged at a dropped level")
	}
}

// sortedMinimal returns the minimal nodes in Incognito's (height, key)
// order.
func sortedMinimal(nodes []MinimalNode) []MinimalNode {
	out := append([]MinimalNode(nil), nodes...)
	sortMinimal(out)
	return out
}
