// Package generalize applies full-domain generalization (global
// recoding) and suppression to microdata, producing masked microdata in
// the sense of Samarati/Sweeney and the p-sensitive k-anonymity paper.
package generalize

import (
	"fmt"
	"sort"

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
// tuples. Suppressing all remaining violators always yields a
// k-anonymous table (groups only shrink to zero, never below k).
func (m *Masker) Suppress(t *table.Table, k int) (*table.Table, int, error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("generalize: k must be >= 1, got %d", k)
	}
	groups, err := t.GroupBy(m.qis...)
	if err != nil {
		return nil, 0, err
	}
	keep := make([]int, 0, t.NumRows())
	for _, g := range groups {
		if g.Size() >= k {
			keep = append(keep, g.Rows...)
		}
	}
	// Restore original row order for determinism.
	sort.Ints(keep)
	out, err := t.Gather(keep)
	if err != nil {
		return nil, 0, err
	}
	return out, t.NumRows() - len(keep), nil
}

// SuppressWithin enforces a suppression budget and suppresses in one
// group-by pass: it counts the tuples in sub-k groups and, when the
// count is within budget, removes them exactly as Suppress would. ok is
// false (with a nil table and the sub-k count) when more than budget
// tuples would need suppression.
func (m *Masker) SuppressWithin(t *table.Table, k, budget int) (*table.Table, int, bool, error) {
	if k < 1 {
		return nil, 0, false, fmt.Errorf("generalize: k must be >= 1, got %d", k)
	}
	groups, err := t.GroupBy(m.qis...)
	if err != nil {
		return nil, 0, false, err
	}
	violating := 0
	for _, g := range groups {
		if g.Size() < k {
			violating += g.Size()
		}
	}
	if violating > budget {
		return nil, violating, false, nil
	}
	if violating == 0 {
		return t, 0, true, nil
	}
	keep := make([]int, 0, t.NumRows()-violating)
	for _, g := range groups {
		if g.Size() >= k {
			keep = append(keep, g.Rows...)
		}
	}
	// Restore original row order for determinism.
	sort.Ints(keep)
	out, err := t.Gather(keep)
	if err != nil {
		return nil, 0, false, err
	}
	return out, violating, true, nil
}

// Mask is Apply followed by Suppress: the full masking pipeline of the
// paper (generalize to a node, then suppress residual small groups).
// It returns the masked microdata and the number of suppressed tuples.
func (m *Masker) Mask(t *table.Table, node lattice.Node, k int) (*table.Table, int, error) {
	g, err := m.Apply(t, node)
	if err != nil {
		return nil, 0, err
	}
	return m.Suppress(g, k)
}
