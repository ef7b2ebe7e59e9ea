// Package generalize applies full-domain generalization (global
// recoding) and suppression to microdata, producing masked microdata in
// the sense of Samarati/Sweeney and the p-sensitive k-anonymity paper.
package generalize

import (
	"fmt"

	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/table"
)

// Masker binds a quasi-identifier list to its hierarchies and performs
// the two masking operations of the paper: Apply (generalize to a
// lattice node) and Suppress (drop tuples in small groups).
type Masker struct {
	qis   []string
	hiers *hierarchy.Set
	lat   *lattice.Lattice
}

// NewMasker validates that every quasi-identifier has a hierarchy and
// builds the corresponding generalization lattice.
func NewMasker(qis []string, hiers *hierarchy.Set) (*Masker, error) {
	if len(qis) == 0 {
		return nil, fmt.Errorf("generalize: no quasi-identifier attributes")
	}
	dims, err := hiers.Heights(qis)
	if err != nil {
		return nil, fmt.Errorf("generalize: %w", err)
	}
	lat, err := lattice.New(dims)
	if err != nil {
		return nil, fmt.Errorf("generalize: %w", err)
	}
	q := make([]string, len(qis))
	copy(q, qis)
	return &Masker{qis: q, hiers: hiers, lat: lat}, nil
}

// QuasiIdentifiers returns the quasi-identifier attribute names.
func (m *Masker) QuasiIdentifiers() []string {
	q := make([]string, len(m.qis))
	copy(q, m.qis)
	return q
}

// Lattice returns the generalization lattice induced by the hierarchy
// heights.
func (m *Masker) Lattice() *lattice.Lattice { return m.lat }

// Apply recodes every quasi-identifier column of t to the domain given
// by the lattice node: column i is mapped through its hierarchy at level
// node[i]. Non-QI columns (in particular all confidential attributes)
// are untouched, which is what makes Theorems 1 and 2 of the paper hold.
func (m *Masker) Apply(t *table.Table, node lattice.Node) (*table.Table, error) {
	if !m.lat.Contains(node) {
		return nil, fmt.Errorf("generalize: node %v outside lattice with dims %v", node, m.lat.Dims())
	}
	out := t
	for i, attr := range m.qis {
		if node[i] == 0 {
			continue
		}
		h, err := m.hiers.Get(attr)
		if err != nil {
			return nil, fmt.Errorf("generalize: %w", err)
		}
		level := node[i]
		out, err = out.MapColumn(attr, func(v table.Value) (string, error) {
			return h.Generalize(v.Str(), level)
		})
		if err != nil {
			return nil, fmt.Errorf("generalize: apply %s level %d: %w", attr, level, err)
		}
	}
	return out, nil
}

// Suppress removes every tuple whose QI-group has fewer than k members
// and returns the masked table together with the number of suppressed
// tuples: SuppressWithin with the whole table as the budget.
// Suppressing all remaining violators always yields a k-anonymous
// table (groups only shrink to zero, never below k).
func (m *Masker) Suppress(t *table.Table, k int) (*table.Table, int, error) {
	out, suppressed, _, err := m.SuppressWithin(t, k, t.NumRows())
	return out, suppressed, err
}

// SuppressWithin enforces a suppression budget and suppresses in one
// size-only pass over the rows: it counts the tuples in sub-k groups
// and, when the count is within budget, removes them. ok is false (with
// a nil table and the sub-k count) when more than budget tuples would
// need suppression. Kept rows stay in table order.
func (m *Masker) SuppressWithin(t *table.Table, k, budget int) (*table.Table, int, bool, error) {
	return m.SuppressMatching(t, k, budget, nil)
}

// SuppressMatching is SuppressWithin for a table whose pre-suppression
// group statistics are known, such as a lattice node's: t's QI-groups
// must equal stats group for group (table.Table.RowsBelow), or the
// error wraps table.ErrStatsMismatch and no table is returned. A nil
// stats checks nothing.
func (m *Masker) SuppressMatching(t *table.Table, k, budget int, stats *table.GroupStats) (*table.Table, int, bool, error) {
	if k < 1 {
		return nil, 0, false, fmt.Errorf("generalize: k must be >= 1, got %d", k)
	}
	drop, below, err := t.RowsBelow(m.qis, k, budget, stats)
	if err != nil {
		return nil, 0, false, err
	}
	if below > budget {
		return nil, below, false, nil
	}
	if below == 0 {
		return t, 0, true, nil
	}
	keep := make([]int, 0, t.NumRows()-below)
	next := 0
	for _, r := range drop {
		for ; next < r; next++ {
			keep = append(keep, next)
		}
		next = r + 1
	}
	for ; next < t.NumRows(); next++ {
		keep = append(keep, next)
	}
	out, err := t.Gather(keep)
	if err != nil {
		return nil, 0, false, err
	}
	return out, below, true, nil
}
