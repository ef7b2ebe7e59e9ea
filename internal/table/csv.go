package table

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// csvBufSize is the buffer ReadCSV reads through and WriteCSV writes
// through.
const csvBufSize = 64 << 10

// ReadCSV sizes its columns once when it knows how many bytes its input
// holds: it estimates the records from the line breaks buffered after
// the header and reserves each column's rows up front. The estimate is
// raised by 1/reserveMargin, its bytes are capped at reserveCap times
// the unread input's, and a column whose reservation its rows left more
// than 1/fitSlack unused is copied down to its length before Build.
const (
	reserveMargin = 16
	reserveCap    = 2
	fitSlack      = 8
)

// probeMax is the largest string dictionary a cell is compared against
// value by value; a larger one is looked up in its map.
const probeMax = 8

// ReadCSV reads a comma-separated stream with a header row into a table.
// If schema is nil, every column is typed String and names come from the
// header. If a schema is supplied, the header must contain exactly its
// field names (order may differ; columns are matched by name). Records
// are read as encoding/csv reads them with TrimLeadingSpace set, and
// every cell is trimmed of surrounding white space.
//
// The columns are sized once for a regular *os.File, a *bytes.Reader, a
// *strings.Reader or a *bytes.Buffer, whose unread length ReadCSV can
// take; from any other reader they grow as rows arrive.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	return ReadCSVWith(r, func(header []string) (Schema, error) {
		if schema != nil {
			return *schema, nil
		}
		fields := make([]Field, len(header))
		for i, h := range header {
			fields[i] = Field{Name: h, Type: String}
		}
		return NewSchema(fields...)
	})
}

// ReadCSVWith reads like ReadCSV, with the schema schemaOf returns for
// the header's names, trimmed as ReadCSV trims them. It reads the header
// and the rows through one reader, so r may be a pipe. An error from
// schemaOf is returned as it is.
func ReadCSVWith(r io.Reader, schemaOf func(header []string) (Schema, error)) (*Table, error) {
	size := unreadLen(r)
	rr := newRecordReader(r)
	header, err := rr.header()
	if err != nil {
		return nil, err
	}
	sch, err := schemaOf(header)
	if err != nil {
		return nil, err
	}
	if len(header) != sch.Len() {
		return nil, fmt.Errorf("table: csv has %d columns, schema has %d", len(header), sch.Len())
	}
	// perm[i] is the schema position of csv column i.
	perm := make([]int, len(header))
	seen := make([]bool, sch.Len())
	for i, h := range header {
		pos := sch.Index(h)
		if pos < 0 {
			return nil, fmt.Errorf("table: csv column %q not in schema", h)
		}
		if seen[pos] {
			return nil, fmt.Errorf("table: csv column %q repeated", h)
		}
		seen[pos] = true
		perm[i] = pos
	}

	b, err := NewBuilder(sch)
	if err != nil {
		return nil, err
	}
	reserved := 0
	if size >= 0 {
		reserved = rr.estimateRows(size, sch)
		reserveRows(b.cols, reserved)
	}
	for {
		cells, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(cells) != len(perm) {
			return nil, fmt.Errorf("table: csv line %d: %w: got %d cells, want %d", rr.start, ErrArity, len(cells), len(perm))
		}
		for i, cell := range cells {
			if err := appendCell(b.cols[perm[i]], cell); err != nil {
				return nil, fmt.Errorf("table: csv line %d: column %q: %w", rr.start, header[i], err)
			}
		}
		b.nrows++
	}
	// String codes need no fit: Build packs them.
	for _, c := range b.cols {
		switch c := c.(type) {
		case *intColumn:
			// appendCell grows int columns without invalidating their
			// memos; drop them once here.
			c.invalidate()
			c.vals = fitReserved(c.vals, reserved)
		case *floatColumn:
			c.vals = fitReserved(c.vals, reserved)
			c.codes = fitReserved(c.codes, reserved)
		}
	}
	return b.Build()
}

// unreadLen reports how many bytes r has left to read, or -1 when it
// cannot tell: what a regular file holds past its offset, or the unread
// length of an in-memory reader.
func unreadLen(r io.Reader) int64 {
	switch r := r.(type) {
	case *bytes.Reader:
		return int64(r.Len())
	case *strings.Reader:
		return int64(r.Len())
	case *bytes.Buffer:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return fi.Size() - off
	}
	return -1
}

// estimateRows estimates the records left in an input of size bytes,
// after the header: the line breaks buffered so far, scaled up to the
// unread bytes and raised by 1/reserveMargin, or the buffered line count
// itself when the whole input is buffered. The estimate is capped at
// reserveCap times the unread bytes' worth of sch's rows.
func (r *recordReader) estimateRows(size int64, sch Schema) int {
	rest := size - r.off
	n := r.br.Buffered()
	if rest <= 0 || n == 0 {
		return 0
	}
	buf, _ := r.br.Peek(n)
	lines := float64(bytes.Count(buf, []byte{'\n'}))
	if int64(n) >= rest {
		if buf[n-1] != '\n' {
			lines++
		}
		return int(lines)
	}
	est := lines * float64(rest) / float64(n)
	est += est / reserveMargin
	var row int64
	for _, f := range sch.Fields {
		row += rowBytes(f.Type)
	}
	return int(min(est, float64(reserveCap*rest/row)))
}

// appendCell parses one trimmed cell into its column without copying
// it: a string cell allocates only when it adds a dictionary value. A
// dictionary of at most probeMax values is probed in code order before
// any map lookup, and a cell of 1 to 18 digits is parsed in place; any
// other cell, and every miss, takes the general path, so codes, values
// and errors are those of intern and strconv.
func appendCell(col Column, cell []byte) error {
	switch c := col.(type) {
	case *stringColumn:
		code := int32(-1)
		if len(c.dict) <= probeMax {
			for i, s := range c.dict {
				if s == string(cell) {
					code = int32(i)
					break
				}
			}
		} else if v, ok := c.index[string(cell)]; ok {
			code = v
		}
		if code < 0 {
			code = c.intern(string(cell))
		}
		c.codes = append(c.codes, code)
	case *intColumn:
		n, ok := parseDigits(cell)
		if !ok {
			var err error
			if n, err = strconv.ParseInt(string(cell), 10, 64); err != nil {
				return fmt.Errorf("cannot parse %q as int: %w", cell, err)
			}
		}
		c.vals = append(c.vals, n)
	case *floatColumn:
		f, err := strconv.ParseFloat(string(cell), 64)
		if err != nil {
			return fmt.Errorf("cannot parse %q as float: %w", cell, err)
		}
		c.append(f)
	default:
		return col.AppendText(string(cell))
	}
	return nil
}

// parseDigits parses a cell of 1 to 18 ASCII digits, which cannot
// overflow an int64; ok is false for any other cell.
func parseDigits(cell []byte) (n int64, ok bool) {
	if len(cell) == 0 || len(cell) > 18 {
		return 0, false
	}
	for _, b := range cell {
		d := b - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int64(d)
	}
	return n, true
}

// recordReader splits a CSV stream into records of trimmed cells, the
// records encoding/csv reads with TrimLeadingSpace set. Physical lines
// follow encoding/csv's rules: CRLF reads as LF, a CR just before EOF
// is dropped and an empty line is skipped. A line with no quote byte is
// split at its commas in place, in one scan that also looks for the
// quote. A line with one starts a quoted record, which encoding/csv
// itself parses, so quoting follows it exactly.
type recordReader struct {
	br    *bufio.Reader
	line  int      // physical lines read so far
	off   int64    // bytes of those lines
	start int      // the physical line the last record started on
	long  []byte   // a line longer than br's buffer, joined
	cells [][]byte // the last record's cells

	// A quoted record's raw lines are gathered in span and served to cr,
	// which is reused from record to record, through src; its fields are
	// copied into fields for cells to view.
	span   []byte
	src    bytes.Reader
	cr     *csv.Reader
	fields []byte
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{br: bufio.NewReaderSize(r, csvBufSize)}
}

// header reads the first record and returns its cells as names.
func (r *recordReader) header() ([]string, error) {
	cells, err := r.next()
	if err == io.EOF {
		return nil, fmt.Errorf("table: read csv header: %w", err)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = string(c)
	}
	return names, nil
}

// next returns the cells of the next record, or io.EOF after the last.
// The cells are valid until the following call.
func (r *recordReader) next() ([][]byte, error) {
	var raw, line []byte
	for len(line) == 0 {
		var err error
		if raw, err = r.readLine(); err != nil {
			return nil, err
		}
		line = chomp(raw)
	}
	r.start = r.line
	cells := r.cells[:0]
	from := 0
	for i, b := range line {
		switch b {
		case ',':
			cells = append(cells, trimCell(line[from:i]))
			from = i + 1
		case '"':
			r.cells = cells
			return r.quoted(raw)
		}
	}
	r.cells = append(cells, trimCell(line[from:]))
	return r.cells, nil
}

// trimCell is bytes.TrimSpace for a cell. A cell whose first and last
// bytes are printable ASCII (0x21-0x7F) has no white space to trim, and
// is returned without the call.
func trimCell(cell []byte) []byte {
	if n := len(cell); n > 0 && cell[0]-0x21 < 0x5f && cell[n-1]-0x21 < 0x5f {
		return cell
	}
	return bytes.TrimSpace(cell)
}

// readLine returns the next physical line with its line break, or
// io.EOF once the input is spent. The line is valid until the next call.
func (r *recordReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
	}
	if err != nil {
		if err != io.EOF {
			err = fmt.Errorf("table: csv line %d: %w", r.line+1, err)
		}
		return nil, err
	}
	r.line++
	r.off += int64(len(line))
	return line, nil
}

// chomp strips a line's break as encoding/csv reads it: "\n", "\r\n",
// or a CR just before EOF.
func chomp(line []byte) []byte {
	n := len(line)
	if n > 0 && line[n-1] == '\n' {
		n--
	}
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n]
}

// quoted parses the record that starts with the raw line first. The
// record runs to the first line end with an even number of quote bytes
// behind it: in a well-formed record that is the first line end outside
// a quoted field, and encoding/csv rejects a record that is not
// well-formed.
func (r *recordReader) quoted(first []byte) ([][]byte, error) {
	r.span = append(r.span[:0], first...)
	quotes := bytes.Count(first, []byte{'"'})
	for quotes%2 == 1 {
		raw, err := r.readLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		r.span = append(r.span, raw...)
		quotes += bytes.Count(raw, []byte{'"'})
	}
	// The raw lines go to encoding/csv unnormalized: it applies the
	// line-break rules itself, and reads "\r\r\n" as a kept CR.
	r.src.Reset(r.span)
	if r.cr == nil {
		r.cr = csv.NewReader(&r.src)
		r.cr.TrimLeadingSpace = true
		r.cr.ReuseRecord = true
		r.cr.FieldsPerRecord = -1
	}
	rec, err := r.cr.Read()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return nil, fmt.Errorf("table: csv line %d, column %d: %w", r.start+pe.Line-pe.StartLine, pe.Column, pe.Err)
		}
		return nil, fmt.Errorf("table: csv line %d: %w", r.start, err)
	}
	// A cell keeps viewing the bytes it was copied to even when a later
	// append moves fields to a larger array.
	r.fields = r.fields[:0]
	r.cells = r.cells[:0]
	for _, f := range rec {
		start := len(r.fields)
		r.fields = append(r.fields, strings.TrimSpace(f)...)
		r.cells = append(r.cells, r.fields[start:])
	}
	return r.cells, nil
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
// Fields are written exactly as encoding/csv writes them; a string
// column's dictionary entry is rendered once, the first time a row
// holds it, so a row costs byte appends.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, csvBufSize)
	var field bytes.Buffer
	cw := csv.NewWriter(&field)
	// appendField appends s as encoding/csv writes it as a field, and a
	// comma. encoding/csv reads a CRLF inside a quoted field back as LF,
	// but reads "\r\r\n" as CRLF, so a CRLF is written doubled.
	appendField := func(dst []byte, s string) []byte {
		field.Reset()
		cw.Write([]string{strings.ReplaceAll(s, "\r\n", "\r\r\n")})
		cw.Flush()
		b := field.Bytes()
		return append(append(dst, b[:len(b)-1]...), ',')
	}
	var row []byte
	for _, name := range t.schema.Names() {
		row = appendField(row, name)
	}
	if _, err := bw.Write(endRow(row)); err != nil {
		return fmt.Errorf("table: write csv header: %w", err)
	}

	// cells[c][code] is string column c's entry code rendered with its
	// trailing comma, or nil until a row holds it. Rendered entries share
	// one arena.
	cells := make([][][]byte, len(t.cols))
	for c, col := range t.cols {
		if sc, ok := col.(*stringColumn); ok {
			cells[c] = make([][]byte, len(sc.dict))
		}
	}
	var arena []byte
	for r := 0; r < t.nrows; r++ {
		row = row[:0]
		for c, col := range t.cols {
			switch col := col.(type) {
			case *stringColumn:
				code := col.Code(r)
				cell := cells[c][code]
				if cell == nil {
					start := len(arena)
					arena = appendField(arena, col.dict[code])
					cell = arena[start:len(arena):len(arena)]
					cells[c][code] = cell
				}
				row = append(row, cell...)
			case *intColumn:
				row = append(strconv.AppendInt(row, col.vals[r], 10), ',')
			case *floatColumn:
				row = append(strconv.AppendFloat(row, col.vals[r], 'g', -1, 64), ',')
			default:
				row = appendField(row, col.Value(r).Str())
			}
		}
		if len(row) == 1 {
			// encoding/csv writes a lone empty field as an empty line,
			// which its reader skips; quote it so the row reads back.
			row = append(row[:0], `"",`...)
		}
		if _, err := bw.Write(endRow(row)); err != nil {
			return fmt.Errorf("table: write csv row %d: %w", r, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("table: write csv: %w", err)
	}
	return nil
}

// endRow turns the comma after a row's last field into its line break.
func endRow(row []byte) []byte {
	if len(row) == 0 {
		return append(row, '\n')
	}
	row[len(row)-1] = '\n'
	return row
}

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
