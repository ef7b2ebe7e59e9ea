package psk

import "psk/internal/search"

// Session is a streaming anonymization session: open it once on the
// base microdata, feed it append/retire deltas with Apply, and call
// Republish after each batch for a fresh verdict at a cost
// proportional to the delta, not the table. The published
// generalization is maintained incrementally — group statistics move
// with each row, unchanged verdicts re-scan only the touched groups,
// and a broken verdict is repaired by climbing the lattice from the
// incumbent node before falling back to a cold Config.Algorithm
// search. Every verdict matches evaluating the published node on a
// fresh scan of the live rows, and Materialize is byte-identical to
// the batch pipeline on the live snapshot; a repaired node is a
// satisfying ancestor of the incumbent but need not be globally
// height-minimal (see DESIGN.md §14).
//
// A Session is not safe for concurrent use.
type Session struct {
	inc *search.Incremental
}

// OpenSession starts a streaming session over the base microdata. The
// table is copied, so later changes to im do not affect the session;
// Config.Algorithm selects the cold-fallback strategy used for the
// first Republish and for republishes the incremental repair cannot
// settle.
func OpenSession(im *Table, cfg Config) (*Session, error) {
	inc, err := search.OpenIncremental(im, cfg.searchConfig(), cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	return &Session{inc: inc}, nil
}

// Schema returns the session's row schema; appended cells follow it.
func (s *Session) Schema() Schema { return s.inc.Schema() }

// NumLive reports the number of live (non-retired) rows.
func (s *Session) NumLive() int { return s.inc.NumLive() }

// NumRows reports the total number of row ids ever stored: the base
// table's rows are 0..n-1 and every appended row takes the next id.
func (s *Session) NumRows() int { return s.inc.NumRows() }

// Published returns a copy of the currently published generalization
// node, or nil when nothing is published (before the first Republish,
// or after one that found no satisfying node).
func (s *Session) Published() Node { return s.inc.Published() }

// Apply absorbs one delta batch: retires first (ids must name live
// rows), then appends (textual cells in schema order). On error the
// batch stops at the failing row; an error that could leave the
// maintained statistics inconsistent poisons the session permanently.
func (s *Session) Apply(appends [][]string, retires []int) error {
	return s.inc.Apply(appends, retires)
}

// Republish re-verdicts the published node against the current live
// rows and returns a batch-shaped Result. Result.Masked is nil on the
// incremental paths (materializing costs O(live rows)); call
// Materialize when the masked release is actually needed. AllMinimal
// and Frontier are only filled by a cold Config.Algorithm search.
func (s *Session) Republish() (*Result, error) {
	r, err := s.inc.Republish()
	if err != nil {
		return nil, err
	}
	return newResult(r), nil
}

// Materialize builds the masked microdata for the published node from
// the current live rows — byte-identical to Anonymize's output on a
// snapshot of them — and returns it with the suppressed-tuple count.
func (s *Session) Materialize() (*Table, int, error) { return s.inc.Materialize() }
