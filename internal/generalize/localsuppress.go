package generalize

import (
	"psk/internal/hierarchy"
	"psk/internal/table"
)

// SuppressCells applies local suppression (the paper's Section 2 lists
// it among the masking methods): instead of deleting the tuples of
// undersized QI-groups, their quasi-identifier *cells* are replaced
// with the Suppressed label ("*"), moving them into the fully masked
// group. The record count — and with it every confidential value — is
// preserved, which matters for statistical users who need unbiased
// counts over the confidential attributes.
//
// The fully masked group itself counts toward k: the result is
// k-anonymous iff the number of locally suppressed tuples is 0 or at
// least k (a caller that needs the guarantee re-checks with
// core.IsKAnonymous). The returned count is the number of tuples whose
// cells were suppressed.
func (m *Masker) SuppressCells(t *table.Table, k int) (*table.Table, int, error) {
	drop, below, err := t.RowsBelow(m.qis, k, t.NumRows(), nil)
	if err != nil {
		return nil, 0, err
	}
	if below == 0 {
		return t, 0, nil
	}
	out := t
	for _, attr := range m.qis {
		// MapColumn visits rows in order, and drop is ascending.
		row, next := 0, 0
		out, err = out.MapColumn(attr, func(v table.Value) (string, error) {
			r := row
			row++
			if next < len(drop) && drop[next] == r {
				next++
				return hierarchy.Suppressed, nil
			}
			return v.Str(), nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return out, below, nil
}
