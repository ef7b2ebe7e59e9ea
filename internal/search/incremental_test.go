package search

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"psk/internal/core"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// incrConfig is the streaming test configuration over the Figure 3
// schema (Sex/ZipCode QIs, Illness confidential).
func incrConfig(t testing.TB, k, p, ts, workers int) Config {
	t.Helper()
	return Config{
		QIs:           []string{"Sex", "ZipCode"},
		Confidential:  []string{"Illness"},
		Hierarchies:   figure3Hierarchies(t),
		K:             k,
		P:             p,
		MaxSuppress:   ts,
		UseConditions: true,
		Workers:       workers,
	}
}

// streamTable builds a deterministic n-row table over the Figure 3
// schema with enough value variety that churn moves group statistics.
func streamTable(t testing.TB, rng *rand.Rand, n int) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = streamRow(rng, 0)
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

var (
	streamZips = []string{"41076", "41099", "43102", "43103", "48201", "48202"}
	streamIlls = []string{"Flu", "Cold", "Asthma", "HIV"}
)

// streamRow samples one row; newValueOdds > 0 gives roughly 1-in-odds
// rows a never-before-seen ZipCode, exercising dictionary growth and
// the published-node code translation for new values.
func streamRow(rng *rand.Rand, newValueOdds int) []string {
	sex := "M"
	if rng.Intn(2) == 0 {
		sex = "F"
	}
	zip := streamZips[rng.Intn(len(streamZips))]
	if newValueOdds > 0 && rng.Intn(newValueOdds) == 0 {
		zip = fmt.Sprintf("4%04d", rng.Intn(10000))
	}
	return []string{sex, zip, streamIlls[rng.Intn(len(streamIlls))]}
}

// churn samples a delta batch against the session: nRetire distinct
// live ids and nAppend fresh rows.
func churn(rng *rand.Rand, s *Incremental, nAppend, nRetire int) ([][]string, []int) {
	retires := make([]int, 0, nRetire)
	seen := make(map[int]bool)
	for len(retires) < nRetire {
		id := rng.Intn(s.NumRows())
		if s.led.Live(id) && !seen[id] {
			seen[id] = true
			retires = append(retires, id)
		}
	}
	appends := make([][]string, nAppend)
	for i := range appends {
		appends[i] = streamRow(rng, 4)
	}
	return appends, retires
}

// renderTable renders schema and every cell to text, the byte-level
// form the equivalence tests compare masked tables in (dictionary code
// assignment is storage detail; values and row order are the contract).
func renderTable(tbl *table.Table) string {
	var b strings.Builder
	b.WriteString(strings.Join(tbl.Schema().Names(), ","))
	for r := 0; r < tbl.NumRows(); r++ {
		b.WriteByte('\n')
		for c := 0; c < tbl.Schema().Len(); c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			b.WriteString(tbl.ColumnAt(c).Value(r).Str())
		}
	}
	return b.String()
}

// canonGroups canonicalizes statistics for cross-code-space comparison:
// QI codes are session-private in maintained statistics, so groups
// reduce to (size, confidential histograms) — the only inputs any
// verdict reads — sorted into a multiset.
func canonGroups(s *table.GroupStats) []string {
	out := make([]string, 0, len(s.Groups))
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Size == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%d|%v", g.Size, g.Hists))
	}
	sort.Strings(out)
	return out
}

// freshNodeStats evaluates the node on a fresh scan of the session's
// live rows: generalize the snapshot, group, gate suppression, run the
// effective policy — the batch pipeline the incremental verdict must
// agree with byte for byte.
func freshNodeStats(t *testing.T, s *Incremental, node lattice.Node) (violating int, satisfied bool, stats *table.GroupStats) {
	t.Helper()
	snap, err := s.led.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.m.Apply(snap, node)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = g.GroupStats(s.cfg.QIs, s.conf, 1)
	if err != nil {
		t.Fatal(err)
	}
	violating = stats.TuplesBelow(s.cfg.K)
	if violating > s.cfg.MaxSuppress {
		return violating, false, stats
	}
	res, err := s.cfg.effectivePolicy(rowScanBounds(t, snap, s.cfg)).Evaluate(core.StatsView{
		Stats: stats.SuppressBelow(s.cfg.K),
		Conf:  s.conf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return violating, res.Satisfied, stats
}

// checkTotals pins the session's confidential totals, and the
// Condition 1–2 bounds it reads off them, to a fresh scan of the live
// rows: the totals of GroupStats on the snapshot, and core.ComputeBounds
// on it.
func checkTotals(t *testing.T, s *Incremental, what string) {
	t.Helper()
	snap, err := s.led.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := snap.GroupStats(s.cfg.QIs, s.conf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(s.totals), fmt.Sprint(fresh.Totals()); got != want {
		t.Fatalf("%s: maintained totals %s, fresh scan %s", what, got, want)
	}
	want, err := core.ComputeBounds(snap, s.conf, s.cfg.P)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.currentBounds(); err != nil || got != want {
		t.Fatalf("%s: maintained bounds %+v (err %v), ComputeBounds on the live rows %+v", what, got, err, want)
	}
}

// TestIncrementalInitialPublishMatchesBatch: the first Republish must
// be byte-identical to running the fallback strategy directly on the
// same rows — node, verdict, suppression, stats, and the masked table —
// for all five strategies at worker counts 1 and 4.
func TestIncrementalInitialPublishMatchesBatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for fb := range numStrategies {
			t.Run(fmt.Sprintf("%s/w%d", fb, workers), func(t *testing.T) {
				cfg := incrConfig(t, 3, 2, 2, workers)
				im := figure3Table(t)
				s, err := OpenIncremental(im, cfg, fb)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Republish()
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(im, cfg, fb)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Found {
					t.Fatalf("batch %s found nothing on the fixture", fb)
				}
				if fmtResult(got) != fmtResult(want) {
					t.Fatalf("initial publish differs from batch:\n%s\nbatch:\n%s", fmtResult(got), fmtResult(want))
				}
				mat, supp, err := s.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				if supp != want.Suppressed || renderTable(mat) != renderTable(want.Masked) {
					t.Fatal("Materialize differs from the batch masked table")
				}
			})
		}
	}
}

// TestIncrementalStreamMatchesFreshScan is the differential core: a
// long churn stream where, after every batch, the incremental verdict,
// suppression count, maintained statistics, confidential totals and
// bounds, and materialized table must all agree with a fresh batch
// pipeline on the live rows.
func TestIncrementalStreamMatchesFreshScan(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			cfg := incrConfig(t, 3, 2, 8, workers)
			rec := obs.NewRecorder()
			cfg.Recorder = rec
			s, err := OpenIncremental(streamTable(t, rng, 300), cfg, StrategySamarati)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Republish(); err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 10; batch++ {
				appends, retires := churn(rng, s, 24, 12)
				if err := s.Apply(appends, retires); err != nil {
					t.Fatal(err)
				}
				checkTotals(t, s, fmt.Sprintf("batch %d", batch))
				res, err := s.Republish()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Found {
					// Nothing satisfies: the batch oracle must agree.
					snap, err := s.led.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					cold, err := Run(snap, cfg, StrategySamarati)
					if err != nil {
						t.Fatal(err)
					}
					if cold.Found {
						t.Fatalf("batch %d: incremental found nothing, batch found %v", batch, cold.Node)
					}
					continue
				}
				violating, satisfied, fresh := freshNodeStats(t, s, res.Node)
				if !satisfied {
					t.Fatalf("batch %d: incremental published %v, fresh scan rejects it", batch, res.Node)
				}
				if violating != res.Suppressed {
					t.Fatalf("batch %d: suppressed %d, fresh scan says %d", batch, res.Suppressed, violating)
				}
				ps := s.pubStats.View()
				if ps.NumRows != fresh.NumRows {
					t.Fatalf("batch %d: maintained NumRows %d, fresh %d", batch, ps.NumRows, fresh.NumRows)
				}
				gotGroups, wantGroups := canonGroups(ps), canonGroups(fresh)
				if len(gotGroups) != len(wantGroups) {
					t.Fatalf("batch %d: %d maintained groups, %d fresh", batch, len(gotGroups), len(wantGroups))
				}
				for i := range gotGroups {
					if gotGroups[i] != wantGroups[i] {
						t.Fatalf("batch %d: maintained group %q, fresh %q", batch, gotGroups[i], wantGroups[i])
					}
				}
				// The masked release must be the batch pipeline's bytes.
				mat, supp, err := s.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				snap, err := s.led.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				g, err := s.m.Apply(snap, res.Node)
				if err != nil {
					t.Fatal(err)
				}
				want, wantSupp, within, err := s.m.SuppressWithin(g, cfg.K, cfg.MaxSuppress)
				if err != nil || !within {
					t.Fatalf("batch pipeline rejected the published node: within=%v err=%v", within, err)
				}
				if supp != wantSupp || renderTable(mat) != renderTable(want) {
					t.Fatalf("batch %d: materialized table differs from the batch pipeline", batch)
				}
			}
			rep := rec.Snapshot()
			if rep.Incremental.GroupsRecheck == 0 {
				t.Fatal("stream never took the O(changed-groups) fast path")
			}
			if rep.Incremental.ColdFallbacks == 0 {
				t.Fatal("initial publish did not count as a cold fallback")
			}
		})
	}
}

// TestIncrementalRepublishKeepsHistogramsOwned: a fast-path Republish
// reads the published statistics without marking their histograms
// shared, so a one-row batch after it copies none of them. The batch
// retires and re-appends a row of a group the previous batch touched,
// which the delta already owns; a copy would give the group a new
// histogram slice.
func TestIncrementalRepublishKeepsHistogramsOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cfg := incrConfig(t, 3, 2, 8, 1)
	rec := obs.NewRecorder()
	cfg.Recorder = rec
	s, err := OpenIncremental(streamTable(t, rng, 300), cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Republish(); err != nil || !res.Found {
		t.Fatalf("initial publish: found %v, err %v", res.Found, err)
	}
	row := []string{"M", streamZips[0], streamIlls[0]}
	if err := s.Apply([][]string{row}, nil); err != nil {
		t.Fatal(err)
	}
	before := rec.Snapshot().Incremental
	if res, err := s.Republish(); err != nil || !res.Found {
		t.Fatalf("republish: found %v, err %v", res.Found, err)
	}
	after := rec.Snapshot().Incremental
	if after.GroupsRecheck == before.GroupsRecheck || after.RepairAscents != before.RepairAscents || after.ColdFallbacks != before.ColdFallbacks {
		t.Fatalf("republish left the fast path: %+v, then %+v", before, after)
	}

	groups := s.pubStats.View().Groups
	hists := make([]*table.CodeHist, len(groups))
	for g := range groups {
		hists[g] = &groups[g].Hists[0]
	}
	if err := s.Apply([][]string{row}, []int{s.NumRows() - 1}); err != nil {
		t.Fatal(err)
	}
	for g, h := range hists {
		if got := &s.pubStats.View().Groups[g].Hists[0]; got != h {
			t.Errorf("group %d: the one-row batch copied its histograms", g)
		}
	}
}

// TestIncrementalCondition1FollowsTotals retires, batch by batch, every
// row whose Illness is not Flu, so Condition 1 fails for p = 2 once the
// last of them goes. Each Republish must report PrunedCondition1 exactly
// when ComputeBounds on the live rows is infeasible — from a published
// node, on the session's own totals, with no repair ascent or cold
// search — and appending a second Illness value must publish again.
func TestIncrementalCondition1FollowsTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := incrConfig(t, 3, 2, 4, 1)
	rec := obs.NewRecorder()
	cfg.Recorder = rec
	s, err := OpenIncremental(streamTable(t, rng, 60), cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Republish(); err != nil || !res.Found {
		t.Fatalf("initial publish: found %v, err %v", res.Found, err)
	}
	ill := s.confCols[0] // Illness
	found, pruned := 0, 0
	for batch := 0; ; batch++ {
		var retires []int
		for id := 0; id < s.NumRows() && len(retires) < 8; id++ {
			if s.led.Live(id) && ill.Value(id).Str() != "Flu" {
				retires = append(retires, id)
			}
		}
		if len(retires) == 0 {
			break
		}
		if err := s.Apply([][]string{{"M", "41076", "Flu"}, {"F", "43102", "Flu"}}, retires); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("batch %d", batch)
		checkTotals(t, s, what)
		snap, err := s.led.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := core.ComputeBounds(snap, s.conf, s.cfg.P)
		if err != nil {
			t.Fatal(err)
		}
		published, before := s.Published() != nil, rec.Snapshot().Incremental
		res, err := s.Republish()
		if err != nil {
			t.Fatal(err)
		}
		if (res.Stats.PrunedCondition1 > 0) != !bounds.Feasible() {
			t.Fatalf("%s: PrunedCondition1 = %d with bounds %+v on the live rows", what, res.Stats.PrunedCondition1, bounds)
		}
		if res.Found {
			found++
		}
		if !bounds.Feasible() {
			pruned++
			if res.Found || s.Published() != nil {
				t.Fatalf("%s: published %v under an infeasible p", what, res.Node)
			}
			after := rec.Snapshot().Incremental
			if published && (after.RepairAscents != before.RepairAscents || after.ColdFallbacks != before.ColdFallbacks) {
				t.Fatalf("%s: the published node was pruned by a search (repair ascents %d -> %d, cold fallbacks %d -> %d), not by the session's totals",
					what, before.RepairAscents, after.RepairAscents, before.ColdFallbacks, after.ColdFallbacks)
			}
		}
	}
	if found == 0 || pruned == 0 {
		t.Fatalf("the stream published after %d batches and was pruned after %d; it must do both", found, pruned)
	}
	if err := s.Apply([][]string{{"M", "41076", "Cold"}}, nil); err != nil {
		t.Fatal(err)
	}
	checkTotals(t, s, "second value")
	res, err := s.Republish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Stats.PrunedCondition1 != 0 {
		t.Fatalf("a second Illness value did not publish again: found %v, stats %+v", res.Found, res.Stats)
	}
	if _, satisfied, _ := freshNodeStats(t, s, res.Node); !satisfied {
		t.Fatalf("fresh scan rejects the republished node %v", res.Node)
	}
}

// TestIncrementalWorkerCountsAgree: two sessions fed identical batches
// at worker counts 1 and 4 must publish identical node sequences.
func TestIncrementalWorkerCountsAgree(t *testing.T) {
	open := func(workers int) *Incremental {
		rng := rand.New(rand.NewSource(9))
		s, err := OpenIncremental(streamTable(t, rng, 200), incrConfig(t, 4, 2, 6, workers), StrategySamarati)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s4 := open(1), open(4)
	rng := rand.New(rand.NewSource(10))
	for batch := 0; batch < 6; batch++ {
		if batch > 0 {
			appends, retires := churn(rng, s1, 30, 15)
			if err := s1.Apply(appends, retires); err != nil {
				t.Fatal(err)
			}
			if err := s4.Apply(appends, retires); err != nil {
				t.Fatal(err)
			}
		}
		r1, err := s1.Republish()
		if err != nil {
			t.Fatal(err)
		}
		r4, err := s4.Republish()
		if err != nil {
			t.Fatal(err)
		}
		if r1.Found != r4.Found || r1.Suppressed != r4.Suppressed ||
			(r1.Found && !r1.Node.Equal(r4.Node)) {
			t.Fatalf("batch %d: workers=1 got %+v (node %v), workers=4 got %+v (node %v)",
				batch, r1, r1.Node, r4, r4.Node)
		}
	}
}

// TestIncrementalRepairAscends engineers a violation with a satisfying
// ancestor: the session must climb from the incumbent — not search cold
// — and land on the first satisfying ancestor in deterministic node
// order, with the telemetry counting exactly one repair.
func TestIncrementalRepairAscends(t *testing.T) {
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	var rows [][]string
	for _, sex := range []string{"M", "F"} {
		for _, zip := range []string{"41076", "41099"} {
			for i := 0; i < 4; i++ {
				rows = append(rows, []string{sex, zip, streamIlls[i%len(streamIlls)]})
			}
		}
	}
	im, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := incrConfig(t, 3, 1, 0, 1)
	rec := obs.NewRecorder()
	cfg.Recorder = rec
	s, err := OpenIncremental(im, cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Republish()
	if err != nil {
		t.Fatal(err)
	}
	bottom := lattice.Node{0, 0}
	if !first.Found || !first.Node.Equal(bottom) {
		t.Fatalf("expected the bottom node to publish first, got %+v (node %v)", first, first.Node)
	}
	// Two rows in a brand-new zip: a sub-k group the zero suppression
	// budget cannot absorb at the incumbent or at any ancestor below
	// <Sex level 0, ZipCode level 2>.
	if err := s.Apply([][]string{{"M", "99999", "Flu"}, {"F", "99999", "Cold"}}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := s.Republish()
	if err != nil {
		t.Fatal(err)
	}
	want := lattice.Node{0, 2}
	if !res.Found || !res.Node.Equal(want) {
		t.Fatalf("repair published %v (found=%v), want %v", res.Node, res.Found, want)
	}
	if !res.Node.StrictGeneralizationOf(first.Node) {
		t.Fatal("repaired node is not an ancestor of the incumbent")
	}
	if _, satisfied, _ := freshNodeStats(t, s, res.Node); !satisfied {
		t.Fatal("fresh scan rejects the repaired node")
	}
	rep := rec.Snapshot()
	if rep.Incremental.RepairAscents != 1 {
		t.Fatalf("RepairAscents = %d, want 1", rep.Incremental.RepairAscents)
	}
	if rep.Incremental.ColdFallbacks != 1 {
		t.Fatalf("ColdFallbacks = %d, want 1 (the initial publish only)", rep.Incremental.ColdFallbacks)
	}
	// The next batch re-verdicts the repaired node in O(changed groups).
	if err := s.Apply([][]string{{"M", "99999", "Asthma"}}, nil); err != nil {
		t.Fatal(err)
	}
	again, err := s.Republish()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Found || !again.Node.Equal(want) {
		t.Fatalf("post-repair republish moved to %v (found=%v)", again.Node, again.Found)
	}
	if rec.Snapshot().Incremental.GroupsRecheck == 0 {
		t.Fatal("post-repair republish did not use the fast path")
	}
}

// TestIncrementalRepairSeesLiveRowsOnly: crossHierarchy is not nested,
// so rolling a Z-level-1 node up to level 2 fails and the engine falls
// back to a row scan of its evaluator's table. A repair must scan the
// live rows there, never the ledger's retired ones. Retire-only batches
// run against a pinned five-row session and against random ones; after
// every republish a found node must materialize and satisfy on a fresh
// scan of the live rows with the suppression it reported, and a
// republish that finds nothing must agree with a batch search.
func TestIncrementalRepairSeesLiveRowsOnly(t *testing.T) {
	open := func(rows [][]string, k, ts, workers int) *Incremental {
		t.Helper()
		tbl, err := table.FromText(table.MustSchema(
			table.Field{Name: "Z", Type: table.String},
			table.Field{Name: "Sex", Type: table.String},
			table.Field{Name: "Illness", Type: table.String},
		), rows)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenIncremental(tbl, Config{
			QIs:           []string{"Z", "Sex"},
			Confidential:  []string{"Illness"},
			Hierarchies:   hierarchy.MustSet(crossHierarchy{"Z"}, hierarchy.NewFlat("Sex")),
			K:             k,
			P:             2,
			MaxSuppress:   ts,
			UseConditions: true,
			Workers:       workers,
			Recorder:      obs.NewRecorder(),
		}, StrategySamarati)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	republish := func(s *Incremental, what string) Result {
		t.Helper()
		res, err := s.Republish()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !res.Found {
			snap, err := s.led.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if cold, err := Run(snap, s.cfg, StrategySamarati); err != nil || cold.Found {
				t.Fatalf("%s: incremental found nothing, batch found %v (err %v)", what, cold.Node, err)
			}
			return res
		}
		if _, _, err := s.Materialize(); err != nil {
			t.Fatalf("%s: published %v: %v", what, res.Node, err)
		}
		violating, satisfied, _ := freshNodeStats(t, s, res.Node)
		if !satisfied || violating != res.Suppressed {
			t.Fatalf("%s: published %v suppressing %d; a fresh scan of the %d live rows has %d sub-k tuples, satisfied %v",
				what, res.Node, res.Suppressed, s.NumLive(), violating, satisfied)
		}
		return res
	}

	// Pinned: <1,0> publishes; retiring "12" and "21" leaves "22" alone.
	// The ascent judges <1,1> and <2,0> from the bottom, then rolls <2,1>
	// up from <1,1>, whose map to Z level 2 fails. On the ledger's rows
	// the "2" group still holds "21" and <2,1> satisfies; on the live
	// rows no node does.
	s := open([][]string{{"22", "M", "c"}, {"11", "M", "b"}, {"11", "M", "a"}, {"12", "M", "b"}, {"21", "M", "b"}}, 2, 0, 1)
	if res := republish(s, "pinned initial"); !res.Found || !res.Node.Equal(lattice.Node{1, 0}) {
		t.Fatalf("pinned initial publish: found %v node %v, want <1,0>", res.Found, res.Node)
	}
	if err := s.Apply(nil, []int{3, 4}); err != nil {
		t.Fatal(err)
	}
	republish(s, "pinned repair")
	if got := s.rec.Snapshot().Incremental.RepairAscents; got != 1 {
		t.Fatalf("pinned case made %d repair ascents, want 1", got)
	}

	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]string, 30+rng.Intn(60))
		for i := range rows {
			rows[i] = []string{
				fmt.Sprintf("%d%d", 1+rng.Intn(3), 1+rng.Intn(3)),
				[]string{"M", "F"}[rng.Intn(2)],
				fmt.Sprintf("d%d", rng.Intn(3)),
			}
		}
		s := open(rows, 2+rng.Intn(3), rng.Intn(3), 1+3*int(seed%2))
		republish(s, fmt.Sprintf("seed %d initial", seed))
		for batch := 0; batch < 10 && s.NumLive() > 0; batch++ {
			var live []int
			for id := range s.NumRows() {
				if s.led.Live(id) {
					live = append(live, id)
				}
			}
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			if err := s.Apply(nil, live[:min(1+rng.Intn(12), len(live))]); err != nil {
				t.Fatal(err)
			}
			republish(s, fmt.Sprintf("seed %d batch %d", seed, batch))
		}
	}
}

// TestIncrementalNotFoundClearsAndRecovers: when even the top node
// fails, the publication clears; a later batch that restores
// feasibility republishes cold.
func TestIncrementalNotFoundClearsAndRecovers(t *testing.T) {
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	rows := [][]string{
		{"M", "41076", "Flu"}, {"M", "41076", "Cold"}, {"M", "41076", "Asthma"},
		{"M", "41076", "Flu"}, {"M", "41076", "Cold"},
	}
	im, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := incrConfig(t, 3, 1, 0, 1)
	rec := obs.NewRecorder()
	cfg.Recorder = rec
	s, err := OpenIncremental(im, cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Republish(); err != nil || !res.Found {
		t.Fatalf("initial publish: %+v, %v", res, err)
	}
	if err := s.Apply(nil, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Republish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || s.Published() != nil {
		t.Fatalf("2 live rows under k=3 published %v", res.Node)
	}
	if _, _, err := s.Materialize(); err == nil {
		t.Fatal("Materialize succeeded with nothing published")
	}
	if err := s.Apply([][]string{
		{"F", "41099", "Flu"}, {"F", "41099", "Cold"}, {"F", "41099", "Flu"}, {"M", "41076", "HIV"},
	}, nil); err != nil {
		t.Fatal(err)
	}
	back, err := s.Republish()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Found {
		t.Fatal("recovered table did not republish")
	}
	if _, satisfied, _ := freshNodeStats(t, s, back.Node); !satisfied {
		t.Fatal("fresh scan rejects the recovered node")
	}
	rep := rec.Snapshot()
	if rep.Incremental.ColdFallbacks != 3 {
		t.Fatalf("ColdFallbacks = %d, want 3 (initial, failed repair fallback, recovery)", rep.Incremental.ColdFallbacks)
	}
	if rep.Incremental.RepairAscents != 1 {
		t.Fatalf("RepairAscents = %d, want 1", rep.Incremental.RepairAscents)
	}
}

// TestOpenIncrementalValidation: invalid configurations and unknown
// strategies are rejected at open, not at first use.
func TestOpenIncrementalValidation(t *testing.T) {
	im := figure3Table(t)
	base := incrConfig(t, 3, 1, 2, 1)

	if _, err := OpenIncremental(im, base, numStrategies); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	cfg := base
	cfg.K = 1
	if _, err := OpenIncremental(im, cfg, StrategySamarati); err == nil {
		t.Fatal("k = 1 accepted")
	}
}

// TestIncrementalApplyErrors: pre-mutation failures leave the session
// usable; each row is absorbed fully or not at all.
func TestIncrementalApplyErrors(t *testing.T) {
	s, err := OpenIncremental(figure3Table(t), incrConfig(t, 3, 2, 2, 1), StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(nil, []int{99}); err == nil {
		t.Fatal("retire of an unknown id accepted")
	}
	if err := s.Apply([][]string{{"M", "41076"}}, nil); err == nil {
		t.Fatal("short row accepted")
	}
	if err := s.Apply(nil, []int{3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(nil, []int{3}); err == nil {
		t.Fatal("double retire accepted")
	}
	// The session stays live after rejected batches.
	if err := s.Apply([][]string{{"F", "41076", "Measles"}}, nil); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Republish(); err != nil || !res.Found {
		t.Fatalf("republish after rejected batches: %+v, %v", res, err)
	}
	if s.NumLive() != 10 {
		t.Fatalf("NumLive = %d, want 10", s.NumLive())
	}
}
