// Package stream defines the delta-batch wire format of the streaming
// anonymizer: JSON Lines, one Batch object per line. A batch carries
// rows to append (textual cells in schema order) and row ids to retire
// (ids are assigned by arrival order: the base table's rows first, then
// every appended row in stream order). The first batch may carry the
// column names so a consumer can reject a stream generated against a
// different schema before mutating anything.
package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// MaxLineBytes caps one encoded batch line. The cap exists for the same
// reason dataset.MaxLineBytes does: the reader accepts user-supplied
// files and must fail cleanly on hostile input instead of buffering
// without bound.
const MaxLineBytes = 16 << 20

// Batch is one delta: rows retired first, then rows appended, exactly
// the order an incremental session applies them in.
type Batch struct {
	// Columns, when present, names the schema the appended cells follow;
	// consumers check it against their table before applying anything.
	Columns []string `json:"columns,omitempty"`
	// Append holds rows to add, one textual cell per column.
	Append [][]string `json:"append,omitempty"`
	// Retire holds row ids to remove, in arrival order (base rows are
	// 0..n-1, appended rows continue from there).
	Retire []int `json:"retire,omitempty"`
}

// Validate checks the batch against the consumer's column names:
// declared columns must match exactly, every appended row must have one
// cell per column, and retire ids must be non-negative (liveness is the
// session's to enforce — only it knows which ids are retired).
func (b Batch) Validate(columns []string) error {
	if len(b.Columns) > 0 {
		if len(b.Columns) != len(columns) {
			return fmt.Errorf("stream: batch declares %d columns, table has %d", len(b.Columns), len(columns))
		}
		for i, name := range b.Columns {
			if name != columns[i] {
				return fmt.Errorf("stream: batch column %d is %q, table has %q", i, name, columns[i])
			}
		}
	}
	for i, row := range b.Append {
		if len(row) != len(columns) {
			return fmt.Errorf("stream: append row %d has %d cells for %d columns", i, len(row), len(columns))
		}
	}
	for i, id := range b.Retire {
		if id < 0 {
			return fmt.Errorf("stream: retire %d names negative row id %d", i, id)
		}
	}
	return nil
}

// Reader decodes one batch per line.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps a JSONL delta stream.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxLineBytes)
	return &Reader{sc: sc}
}

// Next returns the next non-blank batch, or io.EOF at stream end.
func (r *Reader) Next() (Batch, error) {
	for r.sc.Scan() {
		r.line++
		raw := bytes.TrimSpace(r.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var b Batch
		if err := json.Unmarshal(raw, &b); err != nil {
			return Batch{}, fmt.Errorf("stream: line %d: %w", r.line, err)
		}
		return b, nil
	}
	if err := r.sc.Err(); err != nil {
		return Batch{}, fmt.Errorf("stream: line %d: %w", r.line+1, err)
	}
	return Batch{}, io.EOF
}

// Line reports the line number of the most recently returned batch.
func (r *Reader) Line() int { return r.line }

// WriteBatch encodes one batch as one line.
func WriteBatch(w io.Writer, b Batch) error {
	enc, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if len(enc) > MaxLineBytes {
		return fmt.Errorf("stream: encoded batch is %d bytes, cap is %d", len(enc), MaxLineBytes)
	}
	if _, err := w.Write(append(enc, '\n')); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Write encodes a whole delta file.
func Write(w io.Writer, batches []Batch) error {
	for _, b := range batches {
		if err := WriteBatch(w, b); err != nil {
			return err
		}
	}
	return nil
}
