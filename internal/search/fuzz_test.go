package search

import (
	"io"
	"strings"
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/stream"
	"psk/internal/table"
)

// FuzzApplyDelta drives an incremental session with a hostile delta
// file: arbitrary bytes are decoded as JSONL batches and fed through
// the same Validate/Apply/Republish loop the streaming CLI runs. The
// session must never panic — malformed lines, schema mismatches,
// unknown or doubled retire ids and oversized rows must all surface as
// errors — and the live-row accounting must stay exact across every
// accepted batch. After every accepted batch, and every rejected one
// that left the session unpoisoned, the maintained confidential totals
// and bounds must equal a fresh scan of the live rows (checkTotals),
// and a node a republish after an accepted batch publishes must satisfy
// on a fresh scan of the live rows with the suppression it reported
// (DESIGN.md §14). Every input runs against two sessions: one over
// Figure 3's hierarchies and one whose ZipCode hierarchy is
// crossHierarchy, which is not nested, so its repairs fall back to row
// scans. Seed corpus under testdata/fuzz.
func FuzzApplyDelta(f *testing.F) {
	f.Add(`{"append":[["M","41076","Flu"]],"retire":[0]}` + "\n")
	f.Add(`{"columns":["Sex","ZipCode","Illness"],"append":[["F","43103","Cold"]]}` + "\n" + `{"retire":[1,2]}` + "\n")
	f.Add(`{"retire":[99]}` + "\n")
	f.Add(`{"retire":[0]}` + "\n" + `{"retire":[0]}` + "\n")
	f.Add(`{"append":[["M","41076"]]}` + "\n")
	f.Add(`{"columns":["Sex","Zip","Illness"]}` + "\n")
	f.Add("not json\n\n[3]\n")
	f.Add(`{"retire":[-1]}` + "\n")
	// Under crossHierarchy "59099" shares "41099"'s ZipCode level-1 label
	// but parts from it at level 2, so a repair that rolls <0,2> up from
	// a level-1 node falls back to a row scan.
	f.Add(`{"retire":[2,3,4,6,8,9]}` + "\n" + `{"append":[["M","48201","Flu"],["M","59099","Asthma"]],"retire":[5]}` + "\n")
	f.Fuzz(func(t *testing.T, text string) {
		for _, cross := range []bool{false, true} {
			applyDeltas(t, fuzzSession(t, cross), text)
		}
	})
}

// applyDeltas feeds one fuzz input's batches to the session and checks
// it after each.
func applyDeltas(t *testing.T, s *Incremental, text string) {
	cols := s.Schema().Names()
	live := s.NumLive()
	rows := s.NumRows()
	r := stream.NewReader(strings.NewReader(text))
	for batches := 0; batches < 8; batches++ {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return // malformed line: a clean parse error ends the stream
		}
		if b.Validate(cols) != nil {
			continue
		}
		if err := s.Apply(b.Append, b.Retire); err != nil {
			// A rejected batch may be half-absorbed (Apply stops at the
			// failing row); re-read the counters instead of predicting
			// them, then check the session still answers or reports its
			// poisoning honestly.
			live, rows = s.NumLive(), s.NumRows()
			if s.err == nil {
				checkTotals(t, s, "rejected batch")
			}
			if _, err := s.Republish(); err == nil {
				if got := s.NumLive(); got != live {
					t.Fatalf("republish moved NumLive %d -> %d", live, got)
				}
			}
			continue
		}
		live += len(b.Append) - len(b.Retire)
		rows += len(b.Append)
		if s.NumLive() != live || s.NumRows() != rows {
			t.Fatalf("accounting drift: live %d want %d, rows %d want %d", s.NumLive(), live, s.NumRows(), rows)
		}
		checkTotals(t, s, "accepted batch")
		res, err := s.Republish()
		if err != nil {
			t.Fatalf("republish after accepted batch: %v", err)
		}
		if res.Found {
			if violating, satisfied, _ := freshNodeStats(t, s, res.Node); !satisfied || violating != res.Suppressed {
				t.Fatalf("published %v suppressing %d; a fresh scan of the live rows has %d sub-k tuples, satisfied %v",
					res.Node, res.Suppressed, violating, satisfied)
			}
		}
	}
}

// fuzzSession opens a small fixed session (Figure 3's shape) the fuzz
// deltas run against; cross swaps its ZipCode hierarchy for
// crossHierarchy.
func fuzzSession(t *testing.T, cross bool) *Incremental {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "ZipCode", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	tbl, err := table.FromText(sch, [][]string{
		{"M", "41076", "Flu"}, {"F", "41099", "Cold"}, {"M", "41099", "Asthma"},
		{"M", "41076", "Cold"}, {"F", "43102", "Flu"}, {"M", "43102", "Asthma"},
		{"M", "43102", "Cold"}, {"F", "43103", "Flu"}, {"M", "48202", "Asthma"},
		{"M", "48201", "Flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := incrConfig(t, 3, 2, 4, 1)
	if cross {
		cfg.Hierarchies = hierarchy.MustSet(crossHierarchy{"ZipCode"}, hierarchy.NewFlat("Sex"))
	}
	s, err := OpenIncremental(tbl, cfg, StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
