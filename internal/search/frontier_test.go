package search

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/loss"
	"psk/internal/obs"
	"psk/internal/table"
)

// frontierAdult returns a generated Adult-shaped sample and a
// p-sensitive configuration with frontier mode enabled.
func frontierAdult(t testing.TB, n int) (*table.Table, Config) {
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
		Frontier:      FrontierConfig{Enabled: true},
	}
	return src, cfg
}

// frontierStrategies adapts every strategy to "run and hand back the
// frontier".
func frontierStrategies() []struct {
	name string
	run  func(*table.Table, Config) ([]FrontierEntry, error)
} {
	return []struct {
		name string
		run  func(*table.Table, Config) ([]FrontierEntry, error)
	}{
		{"samarati", func(im *table.Table, cfg Config) ([]FrontierEntry, error) {
			r, err := Run(im, cfg, StrategySamarati)
			return r.Frontier, err
		}},
		{"exhaustive", func(im *table.Table, cfg Config) ([]FrontierEntry, error) {
			r, err := Run(im, cfg, StrategyExhaustive)
			return r.Frontier, err
		}},
		{"bottomup", func(im *table.Table, cfg Config) ([]FrontierEntry, error) {
			r, err := Run(im, cfg, StrategyBottomUp)
			return r.Frontier, err
		}},
		{"allminimal", func(im *table.Table, cfg Config) ([]FrontierEntry, error) {
			r, err := AllMinimal(im, cfg)
			return r.Frontier, err
		}},
		{"incognito", func(im *table.Table, cfg Config) ([]FrontierEntry, error) {
			r, err := Run(im, cfg, StrategyIncognito)
			return r.Frontier, err
		}},
	}
}

// withinOneULP reports whether two floats are bit-identical or one
// representable value apart.
func withinOneULP(a, b float64) bool {
	if a == b {
		return true
	}
	if math.Signbit(a) != math.Signbit(b) {
		return false
	}
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		ua, ub = ub, ua
	}
	return ub-ua <= 1
}

// TestFrontierDifferentialOracle pins the stats-native loss scores on
// every frontier entry, for all five strategies at workers 1 and 4,
// against the table-based oracle run on the materialized release:
// integers must match exactly, floats within one ulp (in practice both
// paths sum the same terms in the same order and agree bit-for-bit).
func TestFrontierDifferentialOracle(t *testing.T) {
	im, base := frontierAdult(t, 800)
	m, err := base.validate()
	if err != nil {
		t.Fatal(err)
	}
	policy := base.effectivePolicy(rowScanBounds(t, im, base))
	for _, s := range frontierStrategies() {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			fr, err := s.run(im, cfg)
			if err != nil {
				t.Fatalf("%s/w%d: %v", s.name, workers, err)
			}
			if len(fr) == 0 {
				t.Fatalf("%s/w%d: empty frontier", s.name, workers)
			}
			for _, e := range fr {
				g, err := m.Apply(im, e.Node)
				if err != nil {
					t.Fatal(err)
				}
				mm, suppressed, within, err := m.SuppressWithin(g, cfg.K, cfg.MaxSuppress)
				if err != nil || !within {
					t.Fatalf("%s/w%d node %v: suppress: %v within=%v", s.name, workers, e.Node, err, within)
				}
				if suppressed != e.Suppressed {
					t.Errorf("%s/w%d node %v: suppressed %d, oracle %d", s.name, workers, e.Node, e.Suppressed, suppressed)
				}
				// The verdict and group shape the entry retained from the
				// roll-up statistics must match a fresh scan of the release.
				v, err := core.NewStatsView(mm, cfg.QIs, cfg.effectiveConf(), 1)
				if err != nil {
					t.Fatal(err)
				}
				verdict, err := policy.Evaluate(v)
				if err != nil {
					t.Fatal(err)
				}
				if verdict != e.Verdict || v.Stats.MinGroupSize() != e.MinGroup || v.Stats.NumGroups() != e.Groups {
					t.Errorf("%s/w%d node %v: verdict %+v min %d groups %d, oracle %+v min %d groups %d",
						s.name, workers, e.Node, e.Verdict, e.MinGroup, e.Groups,
						verdict, v.Stats.MinGroupSize(), v.Stats.NumGroups())
				}
				want, err := loss.Measure(loss.Input{
					Initial: im, Masked: mm, QIs: cfg.QIs,
					Node: e.Node, Lattice: m.Lattice(), K: cfg.K,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := e.Loss
				if got.Discernibility != want.Discernibility {
					t.Errorf("%s/w%d node %v: DM %d, oracle %d", s.name, workers, e.Node, got.Discernibility, want.Discernibility)
				}
				floats := []struct {
					name      string
					got, want float64
				}{
					{"height", got.HeightRatio, want.HeightRatio},
					{"precision", got.Precision, want.Precision},
					{"avg-group", got.AvgGroupRatio, want.AvgGroupRatio},
					{"suppression", got.SuppressionRatio, want.SuppressionRatio},
					{"entropy", got.EntropyLossBits, want.EntropyLossBits},
				}
				for _, f := range floats {
					if !withinOneULP(f.got, f.want) {
						t.Errorf("%s/w%d node %v: %s = %x, oracle %x",
							s.name, workers, e.Node, f.name,
							math.Float64bits(f.got), math.Float64bits(f.want))
					}
				}
			}
		}
	}
}

// TestFrontierProperties pins the frontier invariants on every
// strategy: every member carries a satisfied verdict, no rank-0 member
// beats another, entries come in lattice walk order, and the serial and
// 4-worker frontiers are deeply identical (bit-for-bit floats).
func TestFrontierProperties(t *testing.T) {
	im, base := frontierAdult(t, 800)
	objs := DefaultObjectives()
	var reference []FrontierEntry
	for _, s := range frontierStrategies() {
		serial := base
		serial.Workers = 1
		fr, err := s.run(im, serial)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(fr) == 0 {
			t.Fatalf("%s: empty frontier", s.name)
		}
		for i := range fr {
			if !fr[i].Verdict.Satisfied {
				t.Errorf("%s: member %v carries unsatisfied verdict", s.name, fr[i].Node)
			}
			if fr[i].Rank != 0 {
				t.Errorf("%s: member %v has rank %d with default MaxRank 0", s.name, fr[i].Node, fr[i].Rank)
			}
			if fr[i].MinGroup < base.K && fr[i].Groups > 0 {
				t.Errorf("%s: member %v min group %d < k", s.name, fr[i].Node, fr[i].MinGroup)
			}
		}
		for i := range fr {
			for j := range fr {
				if i == j {
					continue
				}
				if beats(&fr[i], &fr[j], objs, i < j) {
					t.Errorf("%s: frontier member %v beats member %v", s.name, fr[i].Node, fr[j].Node)
				}
			}
		}
		parallel := base
		parallel.Workers = 4
		fr4, err := s.run(im, parallel)
		if err != nil {
			t.Fatalf("%s/w4: %v", s.name, err)
		}
		if !reflect.DeepEqual(fr, fr4) {
			t.Errorf("%s: serial and 4-worker frontiers differ", s.name)
		}
		// Every strategy's scan scores the same satisfying set, so the
		// frontier is identical whichever strategy ran.
		if reference == nil {
			reference = fr
		} else if !reflect.DeepEqual(reference, fr) {
			t.Errorf("%s: frontier differs from %s's", s.name, frontierStrategies()[0].name)
		}
	}
}

// TestRankedFrontierStrategyIndependent: a ranked frontier holds the
// same entries under every strategy and worker count. The objective
// sets are ones on which a node that satisfies with no suppression beats
// its whole up-set, so ranks above 0 differ if any strategy skips
// scoring that up-set.
func TestRankedFrontierStrategyIndependent(t *testing.T) {
	objSets := [][]Objective{
		{ObjHeight, ObjPrecision},
		{ObjDiscernibility, ObjEntropy, ObjSuppression},
	}
	for _, n := range []int{300, 800} {
		im, base := frontierAdult(t, n)
		base.Frontier.MaxRank = 3
		for _, objs := range objSets {
			var ref []FrontierEntry
			refName := ""
			for _, s := range frontierStrategies() {
				for _, w := range []int{1, 4} {
					cfg := base
					cfg.Frontier.Objectives = objs
					cfg.Workers = w
					fr, err := s.run(im, cfg)
					if err != nil {
						t.Fatalf("n=%d %v %s/w%d: %v", n, objs, s.name, w, err)
					}
					name := fmt.Sprintf("%s/w%d", s.name, w)
					if refName == "" {
						ref, refName = fr, name
						continue
					}
					if !reflect.DeepEqual(ref, fr) {
						t.Errorf("n=%d %v: %s frontier has %d entries, %s's %d, or they differ",
							n, objs, name, len(fr), refName, len(ref))
					}
				}
			}
		}
	}
}

// TestFrontierCounters pins the telemetry of a frontier pass: scored =
// members + dominated and members = len(frontier).
func TestFrontierCounters(t *testing.T) {
	im, cfg := frontierAdult(t, 800)
	cfg.Recorder = obs.NewRecorder()
	r, err := AllMinimal(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := r.Report.Frontier
	if fs.Members != int64(len(r.Frontier)) {
		t.Errorf("members = %d, frontier has %d", fs.Members, len(r.Frontier))
	}
	if fs.Scored != fs.Members+fs.Dominated {
		t.Errorf("scored %d != members %d + dominated %d", fs.Scored, fs.Members, fs.Dominated)
	}
	if fs.Scored == 0 {
		t.Error("no nodes scored")
	}
	counters := r.Report.DeterministicCounters()
	for _, k := range []string{"frontier.scored", "frontier.members", "frontier.dominated"} {
		if _, ok := counters[k]; !ok {
			t.Errorf("DeterministicCounters missing %q", k)
		}
	}
}

// TestFrontierAblations: across MaxRank growth the rank-0 prefix set
// must be preserved.
func TestFrontierAblations(t *testing.T) {
	im, cfg := frontierAdult(t, 300)
	ref, err := AllMinimal(im, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ranked := cfg
	ranked.Frontier.MaxRank = 2
	r, err := AllMinimal(im, ranked)
	if err != nil {
		t.Fatal(err)
	}
	var rank0 []FrontierEntry
	for _, e := range r.Frontier {
		if e.Rank == 0 {
			rank0 = append(rank0, e)
		}
		if e.Rank < 0 || e.Rank > 2 {
			t.Errorf("entry %v has rank %d outside [0, 2]", e.Node, e.Rank)
		}
	}
	if !reflect.DeepEqual(rank0, ref.Frontier) {
		t.Errorf("rank-0 slice of MaxRank=2 frontier differs from the Pareto set")
	}
	if len(r.Frontier) < len(ref.Frontier) {
		t.Errorf("MaxRank=2 frontier smaller than the Pareto set")
	}
}

// TestFrontierObjectiveValidation: bad frontier configurations must be
// rejected up front.
func TestFrontierObjectiveValidation(t *testing.T) {
	im, cfg := frontierAdult(t, 100)
	bad := cfg
	bad.Frontier.Objectives = []Objective{Objective(250)}
	if _, err := Run(im, bad, StrategySamarati); err == nil {
		t.Error("unknown objective accepted")
	}
	neg := cfg
	neg.Frontier.MaxRank = -1
	if _, err := Run(im, neg, StrategySamarati); err == nil {
		t.Error("negative MaxRank accepted")
	}
	if Objective(250).String() == "" || ObjMargin.String() != "margin" {
		t.Errorf("objective names: %q, %q", Objective(250).String(), ObjMargin.String())
	}
}

// TestFrontierDisabled: with the zero-value FrontierConfig no frontier
// is computed and results stay nil.
func TestFrontierDisabled(t *testing.T) {
	im, cfg := frontierAdult(t, 100)
	cfg.Frontier = FrontierConfig{}
	r, err := Run(im, cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if r.Frontier != nil {
		t.Errorf("frontier computed while disabled: %d entries", len(r.Frontier))
	}
}

// TestFrontierBudgetPartial: a node budget that trips mid-walk still
// yields a valid (possibly empty) frontier prefix and tags the stop
// reason, at every worker count.
func TestFrontierBudgetPartial(t *testing.T) {
	im, cfg := frontierAdult(t, 300)
	cfg.Budget.MaxNodes = 25
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		r, err := AllMinimal(im, c)
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		if r.StopReason != StopNodeBudget {
			t.Errorf("w%d: stop reason %v, want node budget", workers, r.StopReason)
		}
		objs := DefaultObjectives()
		for i := range r.Frontier {
			for j := range r.Frontier {
				if i != j && beats(&r.Frontier[i], &r.Frontier[j], objs, i < j) {
					t.Errorf("w%d: partial frontier member %v beats %v", workers, r.Frontier[i].Node, r.Frontier[j].Node)
				}
			}
		}
	}
}
