package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// ReadCSV reads a comma-separated stream with a header row into a table.
// If schema is nil, every column is typed String and names come from the
// header. If a schema is supplied, the header must contain exactly its
// field names (order may differ; columns are matched by name).
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: read csv header: %w", err)
	}
	for i := range header {
		header[i] = strings.TrimSpace(header[i])
	}

	var sch Schema
	// perm[i] is the schema position of csv column i.
	perm := make([]int, len(header))
	if schema == nil {
		fields := make([]Field, len(header))
		for i, h := range header {
			fields[i] = Field{Name: h, Type: String}
			perm[i] = i
		}
		sch, err = NewSchema(fields...)
		if err != nil {
			return nil, err
		}
	} else {
		sch = *schema
		if len(header) != sch.Len() {
			return nil, fmt.Errorf("table: csv has %d columns, schema has %d", len(header), sch.Len())
		}
		for i, h := range header {
			pos := sch.Index(h)
			if pos < 0 {
				return nil, fmt.Errorf("table: csv column %q not in schema", h)
			}
			perm[i] = pos
		}
	}

	b, err := NewBuilder(sch)
	if err != nil {
		return nil, err
	}
	row := make([]string, sch.Len())
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: read csv line %d: %w", line, err)
		}
		if len(rec) != len(perm) {
			return nil, fmt.Errorf("table: csv line %d: %w: got %d cells, want %d", line, ErrArity, len(rec), len(perm))
		}
		for i, cell := range rec {
			row[perm[i]] = strings.TrimSpace(cell)
		}
		b.AppendText(row...)
	}
	return b.Build()
}

// ReadCSVFile reads a CSV file into a table; see ReadCSV.
func ReadCSVFile(path string, schema *Schema) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	defer f.Close()
	return ReadCSV(f, schema)
}

// WriteCSV writes the table with a header row. Any table ReadCSV
// returns writes back to a stream ReadCSV reads as an equal table.
func (t *Table) WriteCSV(w io.Writer) error {
	// encoding/csv reads a CRLF inside a quoted field back as LF, but
	// reads "\r\r\n" as CRLF: a table holding a CRLF writes it doubled.
	names := t.schema.Names()
	crlf := slices.ContainsFunc(names, hasCRLF)
	for _, col := range t.cols {
		if sc, ok := col.(*stringColumn); ok && slices.ContainsFunc(sc.dict, hasCRLF) {
			crlf = true
		}
	}
	if crlf {
		for i := range names {
			names[i] = escapeCRLF(names[i])
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(names); err != nil {
		return fmt.Errorf("table: write csv header: %w", err)
	}
	rec := make([]string, len(t.cols))
	for r := 0; r < t.nrows; r++ {
		for c, col := range t.cols {
			rec[c] = col.Value(r).Str()
			if crlf {
				rec[c] = escapeCRLF(rec[c])
			}
		}
		if len(rec) == 1 && rec[0] == "" {
			// encoding/csv writes a lone empty field as an empty line,
			// which its reader skips; quote it so the row reads back.
			cw.Flush()
			if err := cw.Error(); err != nil {
				return fmt.Errorf("table: write csv row %d: %w", r, err)
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return fmt.Errorf("table: write csv row %d: %w", r, err)
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("table: write csv row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func hasCRLF(s string) bool { return strings.Contains(s, "\r\n") }

func escapeCRLF(s string) string { return strings.ReplaceAll(s, "\r\n", "\r\r\n") }

// WriteCSVFile writes the table to a file, creating or truncating it.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("table: %w", err)
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
