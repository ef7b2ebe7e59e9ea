package table

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file is the delta-maintenance layer of the roll-up substrate:
// Ledger turns the immutable Table into an append/retire row store with
// stable row ids, and StatsDelta applies those row-level changes to an
// existing GroupStats in place — histogram add/subtract per touched
// group — so a streaming publisher re-verdicts in O(changed groups)
// instead of re-scanning rows (DESIGN.md §14).

// Ledger is a mutable row store over a table: rows are appended at the
// end and retired by id, and ids are stable — the i-th row ever stored
// (the base table's rows first) keeps id i forever, even after being
// retired. Retiring never removes data: retired rows stay addressable
// (their codes are needed to subtract them from maintained statistics)
// but are excluded from Snapshot and from the live count.
//
// The ledger owns its table: NewLedger deep-copies the input so appends
// never mutate columns the caller may share with other tables. Appends
// go through the columns' own append paths, so frozen (bit-packed)
// string columns transparently unfreeze and re-intern — new values get
// fresh dictionary codes, existing codes never move.
//
// A Ledger is not safe for concurrent mutation; one writer at a time,
// exactly like a Builder.
type Ledger struct {
	tab      *Table
	retired  []bool
	nRetired int
}

// NewLedger builds a ledger seeded with the table's rows (ids 0..n-1,
// all live). The table is deep-copied.
func NewLedger(t *Table) *Ledger {
	return &Ledger{tab: t.Clone(), retired: make([]bool, t.NumRows())}
}

// Table returns the backing table, which holds every row ever appended
// — retired ones included. Callers that need only live rows use
// Snapshot.
func (l *Ledger) Table() *Table { return l.tab }

// NumRows reports the total number of row ids (live + retired).
func (l *Ledger) NumRows() int { return l.tab.nrows }

// NumLive reports the number of live rows.
func (l *Ledger) NumLive() int { return l.tab.nrows - l.nRetired }

// Live reports whether id names a live row.
func (l *Ledger) Live(id int) bool {
	return id >= 0 && id < len(l.retired) && !l.retired[id]
}

// AppendText appends one row of textual cells in schema order and
// returns its id. On any cell error the ledger is left unchanged:
// columns already grown are truncated back, so the table can never end
// up with ragged column lengths mid-row.
func (l *Ledger) AppendText(cells []string) (int, error) {
	if len(cells) != len(l.tab.cols) {
		return 0, fmt.Errorf("table: ledger append has %d cells for %d columns", len(cells), len(l.tab.cols))
	}
	n := l.tab.nrows
	for i, c := range l.tab.cols {
		if err := c.AppendText(cells[i]); err != nil {
			for _, grown := range l.tab.cols[:i] {
				truncateColumn(grown, n)
			}
			return 0, fmt.Errorf("table: ledger append column %q: %w", l.tab.schema.Fields[i].Name, err)
		}
	}
	l.tab.nrows++
	l.retired = append(l.retired, false)
	return n, nil
}

// Retire marks a row id retired. Retiring an unknown or already-retired
// id is an error — the caller's statistics would silently drift if it
// were ignored.
func (l *Ledger) Retire(id int) error {
	if id < 0 || id >= len(l.retired) {
		return fmt.Errorf("table: ledger retire: %w: %d", ErrRowRange, id)
	}
	if l.retired[id] {
		return fmt.Errorf("table: ledger retire: row %d is already retired", id)
	}
	l.retired[id] = true
	l.nRetired++
	return nil
}

// Snapshot materializes the live rows, in id order, as an immutable
// table. This is the O(live rows) step incremental publishing pays only
// when a masked table must actually be produced or a cold search run;
// the per-batch verdict path never calls it.
func (l *Ledger) Snapshot() (*Table, error) {
	rows := make([]int, 0, l.NumLive())
	for id, gone := range l.retired {
		if !gone {
			rows = append(rows, id)
		}
	}
	return l.tab.Gather(rows)
}

// truncateColumn pops a column back to n values after a failed
// multi-column append. Dictionary entries interned by the rolled-back
// cells may linger; that is within column semantics (a dictionary may
// hold values no row carries, as after a shared-dict Gather).
func truncateColumn(c Column, n int) {
	switch col := c.(type) {
	case *stringColumn:
		// The append path unfreezes, so codes is the live storage here.
		col.codes = col.codes[:n]
	case *intColumn:
		col.vals = col.vals[:n]
		col.invalidate()
	case *floatColumn:
		col.vals = col.vals[:n]
		col.codes = col.codes[:n]
	}
}

// StatsDelta maintains a GroupStats under row-level appends and
// retires. Rows are presented as code vectors — the key codes in the
// statistics' own code space plus the confidential codes — and the
// delta locates the row's group by the same varint key Rollup and the
// scan kernels use, then adjusts its size and histograms in place.
// The set of groups touched since the last Reset is returned by
// Changed, which is what lets a policy re-verdict in O(changed groups).
//
// Two invariants the delta preserves:
//
//   - Histograms stay sorted by ascending code with every Count >= 1
//     (zero-count entries are removed), so Distinct/Total/MaxCount and
//     the roll-up merge keep working unchanged.
//   - Histograms possibly shared with other statistics (SuppressBelow,
//     Rollup and the shard merge all share histograms structurally) are
//     copied before the first mutation. Stats marks every histogram
//     shared, because the returned pointer may be rolled up or seeded
//     elsewhere; the delta then copies again before its next write.
//     View, for a read that keeps nothing past the next mutation, marks
//     none.
//
// A group whose size returns to zero is kept as a tombstone: its key
// stays claimed, so a later re-append finds it again. Tombstones are
// invisible to verdicts — the publish path always evaluates the
// suppressed view (SuppressBelow with k >= 2 removes them with the
// other sub-k groups) and they contribute nothing to TuplesBelow or to
// histogram totals.
type StatsDelta struct {
	stats   *GroupStats
	idx     map[string]int
	owned   []bool
	changed map[int]struct{}
	keyBuf  []byte
}

// NewStatsDelta wraps existing statistics for in-place maintenance.
// The statistics are taken over: the caller must not mutate them (or
// scan-derived twins of them) behind the delta's back, though reading
// through Stats stays valid at any time.
func NewStatsDelta(s *GroupStats) (*StatsDelta, error) {
	if s == nil {
		return nil, fmt.Errorf("table: stats delta over nil statistics")
	}
	d := &StatsDelta{
		stats:   s,
		idx:     make(map[string]int, groupHint(len(s.Groups))),
		owned:   make([]bool, len(s.Groups)),
		changed: make(map[int]struct{}),
		keyBuf:  make([]byte, 0, 16*s.NumQI),
	}
	for gi := range s.Groups {
		k := string(d.key(s.Groups[gi].Codes))
		if prev, dup := d.idx[k]; dup {
			return nil, fmt.Errorf("table: stats delta: groups %d and %d share a key", prev, gi)
		}
		d.idx[k] = gi
	}
	return d, nil
}

// Stats returns the maintained statistics. Because the caller may share
// the returned groups onward (roll them up, seed a store with them),
// every histogram is treated as shared from here on: the delta copies
// any histogram again before its next mutation of it.
func (d *StatsDelta) Stats() *GroupStats {
	for i := range d.owned {
		d.owned[i] = false
	}
	return d.stats
}

// View returns the maintained statistics for reading only. Unlike
// Stats it leaves every histogram the delta owns owned, so the next
// mutation copies none of them; in exchange the statistics, and
// anything that shares their groups or histograms (a SuppressBelow view,
// say), are valid only until the next Append or Retire, and must not be
// kept or shared past it.
func (d *StatsDelta) View() *GroupStats { return d.stats }

// NumChanged reports the number of groups touched since the last Reset.
func (d *StatsDelta) NumChanged() int { return len(d.changed) }

// Changed returns the indices (into Stats().Groups, ascending) of the
// groups touched since the last Reset.
func (d *StatsDelta) Changed() []int {
	out := make([]int, 0, len(d.changed))
	for g := range d.changed {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// Reset clears the changed-group set, typically right after a verdict
// consumed it.
func (d *StatsDelta) Reset() {
	for g := range d.changed {
		delete(d.changed, g)
	}
}

// Append adds one row: key codes in the statistics' code space,
// confidential codes, and the row's id (recorded as Rep when the row
// founds a new group). Returns the touched group's index.
func (d *StatsDelta) Append(keyCodes, confCodes []int, rowID int) (int, error) {
	if err := d.checkShape(keyCodes, confCodes); err != nil {
		return 0, err
	}
	k := string(d.key(keyCodes))
	g, ok := d.idx[k]
	if !ok {
		g = len(d.stats.Groups)
		d.stats.Groups = append(d.stats.Groups, GroupStat{
			Codes: append([]int(nil), keyCodes...),
			Rep:   rowID,
			Hists: make([]CodeHist, d.stats.NumConf),
		})
		d.owned = append(d.owned, true)
		d.idx[k] = g
	}
	d.own(g)
	gr := &d.stats.Groups[g]
	gr.Size++
	for a, c := range confCodes {
		gr.Hists[a] = gr.Hists[a].Add(c)
	}
	d.stats.NumRows++
	d.changed[g] = struct{}{}
	return g, nil
}

// Retire subtracts one row. The row's group must exist and its
// histograms must cover the confidential codes — anything else means
// the caller is retiring a row the statistics never absorbed, which is
// an error rather than a silent drift.
func (d *StatsDelta) Retire(keyCodes, confCodes []int) (int, error) {
	if err := d.checkShape(keyCodes, confCodes); err != nil {
		return 0, err
	}
	g, ok := d.idx[string(d.key(keyCodes))]
	if !ok {
		return 0, fmt.Errorf("table: stats delta: retire of a row in no known group (key codes %v)", keyCodes)
	}
	gr := &d.stats.Groups[g]
	if gr.Size < 1 {
		return 0, fmt.Errorf("table: stats delta: retire from empty group %d", g)
	}
	d.own(g)
	gr = &d.stats.Groups[g]
	for a, c := range confCodes {
		h, err := gr.Hists[a].Sub(c)
		if err != nil {
			return 0, fmt.Errorf("table: stats delta: group %d attribute %d: %w", g, a, err)
		}
		gr.Hists[a] = h
	}
	gr.Size--
	d.stats.NumRows--
	d.changed[g] = struct{}{}
	return g, nil
}

func (d *StatsDelta) checkShape(keyCodes, confCodes []int) error {
	if len(keyCodes) != d.stats.NumQI {
		return fmt.Errorf("table: stats delta: %d key codes for %d key columns", len(keyCodes), d.stats.NumQI)
	}
	if len(confCodes) != d.stats.NumConf {
		return fmt.Errorf("table: stats delta: %d confidential codes for %d attributes", len(confCodes), d.stats.NumConf)
	}
	return nil
}

// key renders codes as the varint byte key shared with Rollup and the
// fallback scan kernel.
func (d *StatsDelta) key(codes []int) []byte {
	d.keyBuf = d.keyBuf[:0]
	for _, c := range codes {
		d.keyBuf = binary.AppendVarint(d.keyBuf, int64(c))
	}
	return d.keyBuf
}

// own makes group g's histograms privately writable (copy-on-write).
func (d *StatsDelta) own(g int) {
	if d.owned[g] {
		return
	}
	gr := &d.stats.Groups[g]
	hists := make([]CodeHist, len(gr.Hists))
	for a, h := range gr.Hists {
		hists[a] = append(CodeHist(nil), h...)
	}
	gr.Hists = hists
	d.owned[g] = true
}

// Add increments code's count in the histogram, inserting the entry if
// absent, and returns the histogram, as append does: the caller must own
// it.
func (h CodeHist) Add(code int) CodeHist {
	i := sort.Search(len(h), func(i int) bool { return h[i].Code >= code })
	if i < len(h) && h[i].Code == code {
		h[i].Count++
		return h
	}
	h = append(h, CodeCount{})
	copy(h[i+1:], h[i:])
	h[i] = CodeCount{Code: code, Count: 1}
	return h
}

// Sub decrements code's count, removing the entry at zero, and returns
// the histogram; an absent code is an error. The caller must own the
// histogram.
func (h CodeHist) Sub(code int) (CodeHist, error) {
	i := sort.Search(len(h), func(i int) bool { return h[i].Code >= code })
	if i >= len(h) || h[i].Code != code {
		return nil, fmt.Errorf("confidential code %d is not in the histogram", code)
	}
	h[i].Count--
	if h[i].Count == 0 {
		h = append(h[:i], h[i+1:]...)
	}
	return h, nil
}
