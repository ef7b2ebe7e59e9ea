package table

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// canonStats strips the parts of a GroupStats that legitimately differ
// between a maintained delta and a fresh scan — group order, Rep rows
// and zero-size tombstones — leaving what verdicts depend on.
func canonStats(s *GroupStats) *GroupStats {
	out := &GroupStats{NumRows: s.NumRows, NumQI: s.NumQI, NumConf: s.NumConf}
	for _, g := range s.Groups {
		if g.Size == 0 {
			continue
		}
		cg := GroupStat{Codes: append([]int(nil), g.Codes...), Size: g.Size, Hists: make([]CodeHist, len(g.Hists))}
		for a, h := range g.Hists {
			cg.Hists[a] = append(CodeHist(nil), h...)
		}
		out.Groups = append(out.Groups, cg)
	}
	sort.Slice(out.Groups, func(i, j int) bool {
		a, b := out.Groups[i].Codes, out.Groups[j].Codes
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// applyRow feeds one ledger row id into a StatsDelta using the ledger
// columns' codes, the way the incremental session does.
func applyRow(t *testing.T, d *StatsDelta, qiCols, confCols []Column, id int, retire bool) {
	t.Helper()
	qi := make([]int, len(qiCols))
	for i, c := range qiCols {
		qi[i] = c.Code(id)
	}
	conf := make([]int, len(confCols))
	for i, c := range confCols {
		conf[i] = c.Code(id)
	}
	var err error
	if retire {
		_, err = d.Retire(qi, conf)
	} else {
		_, err = d.Append(qi, conf, id)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatsDeltaMatchesFreshScan: after an arbitrary append/retire
// history, the maintained statistics must canonically equal a fresh
// GroupStats scan over the surviving rows.
func TestStatsDeltaMatchesFreshScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	qis := []string{"A", "B", "C"}
	conf := []string{"S1", "S2"}
	base := randomMicrodata(t, rng, 400)
	led := NewLedger(base)
	s0, err := led.Table().GroupStats(qis, conf, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewStatsDelta(s0)
	if err != nil {
		t.Fatal(err)
	}
	cols := func(names []string) []Column {
		out := make([]Column, len(names))
		for i, n := range names {
			out[i], err = led.Table().Column(n)
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	qiCols, confCols := cols(qis), cols(conf)

	for batch := 0; batch < 5; batch++ {
		// Retire ~5% of live rows, then append a mix of familiar and
		// brand-new values (new dictionary codes on A and S1).
		for id := 0; id < led.NumRows(); id++ {
			if led.Live(id) && rng.Intn(20) == 0 {
				applyRow(t, d, qiCols, confCols, id, true)
				if err := led.Retire(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 30; i++ {
			a := fmt.Sprintf("a%d", rng.Intn(10)) // 8,9 are new values
			s1 := fmt.Sprintf("s%d", rng.Intn(7)) // 5,6 are new values
			cells := []string{
				a,
				fmt.Sprintf("b%d", rng.Intn(6)),
				fmt.Sprintf("c%d", rng.Intn(4)),
				s1,
				strconv.Itoa(rng.Intn(9) - 4),
			}
			id, err := led.AppendText(cells)
			if err != nil {
				t.Fatal(err)
			}
			applyRow(t, d, qiCols, confCols, id, false)
		}

		snap, err := led.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := snap.GroupStats(qis, conf, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, gotC, wantC := d.View(), canonStats(d.View()), canonStats(want)
		if got.NumRows != led.NumLive() {
			t.Fatalf("batch %d: maintained NumRows %d, live rows %d", batch, got.NumRows, led.NumLive())
		}
		if !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("batch %d: maintained stats diverge from fresh scan\ngot:  %+v\nwant: %+v", batch, gotC, wantC)
		}
	}
}

// TestStatsDeltaChangedGroups: Changed must name exactly the groups an
// append/retire touched, and Reset must clear it.
func TestStatsDeltaChangedGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomMicrodata(t, rng, 120)
	led := NewLedger(base)
	s0, err := led.Table().GroupStats([]string{"A", "B"}, []string{"S1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewStatsDelta(s0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Changed()) != 0 {
		t.Fatalf("fresh delta reports %d changed groups", len(d.Changed()))
	}
	g1, err := d.Append([]int{d.stats.Groups[3].Codes[0], d.stats.Groups[3].Codes[1]}, []int{0}, 999)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != 3 {
		t.Fatalf("append to existing key landed in group %d, want 3", g1)
	}
	g2, err := d.Append([]int{1 << 18, 7}, []int{0}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != len(d.stats.Groups)-1 {
		t.Fatalf("new key landed in group %d, want %d", g2, len(d.stats.Groups)-1)
	}
	if want := []int{3, g2}; !reflect.DeepEqual(d.Changed(), want) {
		t.Fatalf("Changed() = %v, want %v", d.Changed(), want)
	}
	d.Reset()
	if len(d.Changed()) != 0 {
		t.Fatalf("Reset left %d changed groups", len(d.Changed()))
	}
}

// TestStatsDeltaTombstone: a group drained to zero stays claimed (a
// re-append finds it), contributes nothing to TuplesBelow, and is
// dropped by SuppressBelow.
func TestStatsDeltaTombstone(t *testing.T) {
	s := &GroupStats{NumRows: 3, NumQI: 1, NumConf: 1, Groups: []GroupStat{
		{Codes: []int{0}, Size: 2, Rep: 0, Hists: []CodeHist{{{Code: 4, Count: 2}}}},
		{Codes: []int{1}, Size: 1, Rep: 2, Hists: []CodeHist{{{Code: 5, Count: 1}}}},
	}}
	d, err := NewStatsDelta(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Retire([]int{1}, []int{5}); err != nil {
		t.Fatal(err)
	}
	if got := d.View(); len(got.Groups) != 2 || got.Groups[1].Size != 0 || len(got.Groups[1].Hists[0]) != 0 {
		t.Fatalf("tombstone not drained in place: %+v", got.Groups)
	}
	if below := d.View().TuplesBelow(2); below != 0 {
		t.Fatalf("tombstone contributes %d tuples below k", below)
	}
	if sup := d.View().SuppressBelow(2); len(sup.Groups) != 1 || sup.NumRows != 2 {
		t.Fatalf("SuppressBelow kept the tombstone: %+v", sup)
	}
	if g, err := d.Append([]int{1}, []int{9}, 7); err != nil || g != 1 {
		t.Fatalf("re-append to tombstoned key: group %d err %v", g, err)
	}
	if gr := d.View().Groups[1]; gr.Size != 1 || !reflect.DeepEqual(gr.Hists[0], CodeHist{{Code: 9, Count: 1}}) {
		t.Fatalf("tombstone revival wrong: %+v", gr)
	}
}

// TestStatsDeltaCopyOnWrite: the statistics a delta wraps (roll-up
// output shares histogram slices with its source) must not be mutated
// by the delta's writes, which the maintained side still sees.
func TestStatsDeltaCopyOnWrite(t *testing.T) {
	s := &GroupStats{NumRows: 4, NumQI: 1, NumConf: 1, Groups: []GroupStat{
		{Codes: []int{0}, Size: 3, Rep: 0, Hists: []CodeHist{{{Code: 1, Count: 2}, {Code: 2, Count: 1}}}},
		{Codes: []int{1}, Size: 1, Rep: 3, Hists: []CodeHist{{{Code: 2, Count: 1}}}},
	}}
	d, err := NewStatsDelta(s)
	if err != nil {
		t.Fatal(err)
	}
	// First write after construction must not touch the seed hists.
	seedHist := s.Groups[0].Hists[0]
	if _, err := d.Append([]int{0}, []int{1}, 9); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seedHist, CodeHist{{Code: 1, Count: 2}, {Code: 2, Count: 1}}) {
		t.Fatalf("seed histogram mutated in place: %+v", seedHist)
	}
	if gr := d.View().Groups[0]; gr.Size != 4 || !reflect.DeepEqual(gr.Hists[0], CodeHist{{Code: 1, Count: 3}, {Code: 2, Count: 1}}) {
		t.Fatalf("maintained group %+v, want size 4 with the appended code", gr)
	}
}

// TestStatsDeltaErrors: malformed rows are rejected without corrupting
// the maintained statistics.
func TestStatsDeltaErrors(t *testing.T) {
	s := &GroupStats{NumRows: 1, NumQI: 2, NumConf: 1, Groups: []GroupStat{
		{Codes: []int{0, 0}, Size: 1, Rep: 0, Hists: []CodeHist{{{Code: 3, Count: 1}}}},
	}}
	d, err := NewStatsDelta(s)
	if err != nil {
		t.Fatal(err)
	}
	cases := []func() error{
		func() error { _, err := d.Append([]int{1}, []int{0}, 1); return err }, // short key
		func() error { _, err := d.Append([]int{1, 2}, nil, 1); return err },   // missing conf
		func() error { _, err := d.Retire([]int{9, 9}, []int{3}); return err }, // unknown group
		func() error { _, err := d.Retire([]int{0, 0}, []int{8}); return err }, // code not in hist
	}
	for i, fn := range cases {
		if fn() == nil {
			t.Fatalf("case %d: error expected", i)
		}
	}
	if got := canonStats(d.View()); !reflect.DeepEqual(got, canonStats(s)) {
		t.Fatalf("failed operations corrupted the statistics: %+v", got)
	}
	// Draining the one row, then retiring again, hits the empty-group check.
	if _, err := d.Retire([]int{0, 0}, []int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Retire([]int{0, 0}, []int{3}); err == nil {
		t.Fatal("retire from empty group succeeded")
	}
	if _, err := NewStatsDelta(nil); err == nil {
		t.Fatal("NewStatsDelta(nil) succeeded")
	}
}

// TestLedgerLifecycle: stable ids, live accounting, snapshot ordering,
// and retire errors.
func TestLedgerLifecycle(t *testing.T) {
	schema := MustSchema(Field{Name: "Q", Type: String}, Field{Name: "N", Type: Int})
	b, err := NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	b.Append(SV("x"), IV(1))
	b.Append(SV("y"), IV(2))
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	led := NewLedger(tbl)
	id, err := led.AppendText([]string{"z", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 || led.NumRows() != 3 || led.NumLive() != 3 {
		t.Fatalf("append id=%d rows=%d live=%d", id, led.NumRows(), led.NumLive())
	}
	// The source table must be untouched by ledger appends.
	if tbl.NumRows() != 2 {
		t.Fatalf("source table grew to %d rows", tbl.NumRows())
	}
	if err := led.Retire(1); err != nil {
		t.Fatal(err)
	}
	if led.NumLive() != 2 || led.Live(1) || !led.Live(2) {
		t.Fatalf("retire bookkeeping wrong: live=%d", led.NumLive())
	}
	if err := led.Retire(1); err == nil {
		t.Fatal("double retire succeeded")
	}
	if err := led.Retire(5); !errors.Is(err, ErrRowRange) {
		t.Fatalf("out-of-range retire: %v", err)
	}
	snap, err := led.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumRows() != 2 {
		t.Fatalf("snapshot has %d rows", snap.NumRows())
	}
	v0, _ := snap.Value(0, "Q")
	v1, _ := snap.Value(1, "Q")
	if v0.Str() != "x" || v1.Str() != "z" {
		t.Fatalf("snapshot rows out of order: %q %q", v0.Str(), v1.Str())
	}
}

// TestLedgerAppendRollback: a mid-row parse failure must leave every
// column at its prior length, and the ledger usable.
func TestLedgerAppendRollback(t *testing.T) {
	schema := MustSchema(Field{Name: "Q", Type: String}, Field{Name: "N", Type: Int})
	b, err := NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	b.Append(SV("x"), IV(1))
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	led := NewLedger(tbl)
	if _, err := led.AppendText([]string{"y", "not-a-number"}); err == nil {
		t.Fatal("bad int cell accepted")
	}
	if _, err := led.AppendText([]string{"y"}); err == nil {
		t.Fatal("short row accepted")
	}
	if led.NumRows() != 1 {
		t.Fatalf("failed appends changed row count to %d", led.NumRows())
	}
	for i := 0; i < 2; i++ {
		if c := led.Table().ColumnAt(i); c.Len() != 1 {
			t.Fatalf("column %d has ragged length %d", i, c.Len())
		}
	}
	id, err := led.AppendText([]string{"y", "2"})
	if err != nil || id != 1 {
		t.Fatalf("ledger unusable after rollback: id=%d err=%v", id, err)
	}
	v, err := led.Table().Value(1, "N")
	if err != nil || v.Int() != 2 {
		t.Fatalf("recovered append stored %v (err %v)", v, err)
	}
}

// TestIntColumnAppendInvalidatesMemos: appends must discard the
// memoized code range and dictionary, or packed plans built after the
// append would misclassify the new values.
func TestIntColumnAppendInvalidatesMemos(t *testing.T) {
	c := &intColumn{vals: []int64{3, 5, 4}}
	if lo, hi, ok := c.CodeRange(); !ok || lo != 3 || hi != 5 {
		t.Fatalf("CodeRange = %d..%d ok=%v", lo, hi, ok)
	}
	if d := c.intDict(); len(d.vals) != 3 || d.id(3) != 0 {
		t.Fatal("seed dict wrong")
	}
	if err := c.AppendValue(IV(7)); err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := c.CodeRange(); !ok || lo != 3 || hi != 7 {
		t.Fatalf("CodeRange after append = %d..%d ok=%v (stale memo)", lo, hi, ok)
	}
	if d := c.intDict(); len(d.vals) != 4 || d.id(7) != 3 {
		t.Fatal("dict after append misses appended value (stale memo)")
	}
	if err := c.AppendText(" -2 "); err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := c.CodeRange(); !ok || lo != -2 || hi != 7 {
		t.Fatalf("CodeRange after text append = %d..%d ok=%v (stale memo)", lo, hi, ok)
	}
}

// TestNewSparseCodeMap: explicit translation tables map and miss as
// expected, and the input map stays independent.
func TestNewSparseCodeMap(t *testing.T) {
	in := map[int]int{1: 10, 2: 10, 3: 30}
	m := NewSparseCodeMap(in)
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if v, ok := m.Map(2); !ok || v != 10 {
		t.Fatalf("Map(2) = %d, %v", v, ok)
	}
	if _, ok := m.Map(9); ok {
		t.Fatal("Map(9) resolved an unknown code")
	}
	in[9] = 90
	if _, ok := m.Map(9); ok {
		t.Fatal("caller mutation leaked into the map")
	}
}
