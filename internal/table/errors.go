package table

import "errors"

// Sentinel errors returned by the table engine. Callers match them with
// errors.Is.
var (
	// ErrNoColumn is returned when a referenced column does not exist.
	ErrNoColumn = errors.New("no such column")
	// ErrArity is returned when a row has the wrong number of cells.
	ErrArity = errors.New("row arity does not match schema")
	// ErrRowRange is returned for out-of-range row indices.
	ErrRowRange = errors.New("row index out of range")
	// ErrEmptySchema is returned when building a table with no fields.
	ErrEmptySchema = errors.New("empty schema")
	// ErrStatsMismatch is returned when a table's groups differ from the
	// group statistics they were checked against.
	ErrStatsMismatch = errors.New("rows do not match their group statistics")
)
