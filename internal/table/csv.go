package table

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// csvBufSize is the buffer ReadCSV reads through and WriteCSV writes
// through.
const csvBufSize = 64 << 10

// A sized input is counted through a countBufSize buffer and split into
// at most one record range per GOMAXPROCS and per splitBytes of its bytes
// after the header. In BenchmarkReadCSVRanges on two vCPUs, two ranges
// read a 16 KiB input 26 % slower than one, and inputs of 32 to 192 KiB
// 12 to 20 % faster, but not in every run; from 256 KiB they were 25 to
// 31 % faster in every run. So a range gets 128 KiB, and the smallest
// input split is 256 KiB.
const (
	countBufSize = 32 << 10
	splitBytes   = 128 << 10
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
// A regular *os.File, a *bytes.Reader, a *strings.Reader or a
// *bytes.Buffer is a sized input: its records after the header are
// counted once, its columns are reserved at that count, and an input of
// 256 KiB or more is parsed in record ranges on up to GOMAXPROCS
// goroutines. The table, errors included, is the one a single pass
// reads, and a sized reader is left at its end. Any other reader is
// read in one pass, its columns growing as rows arrive.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	return ReadCSVWith(r, schemaOr(schema))
}

// schemaOr returns the schemaOf with which ReadCSV reads a schema:
// schema, or when it is nil a String column per header name.
func schemaOr(schema *Schema) func(header []string) (Schema, error) {
	return func(header []string) (Schema, error) {
		if schema != nil {
			return *schema, nil
		}
		fields := make([]Field, len(header))
		for i, h := range header {
			fields[i] = Field{Name: h, Type: String}
		}
		return NewSchema(fields...)
	}
}

// ReadCSVWith reads like ReadCSV, with the schema schemaOf returns for
// the header's names, trimmed as ReadCSV trims them. It reads the header
// and the rows through one reader, so r may be a pipe. An error from
// schemaOf is returned as it is.
func ReadCSVWith(r io.Reader, schemaOf func(header []string) (Schema, error)) (*Table, error) {
	return readCSV(r, schemaOf, 0)
}

// readCSV is ReadCSVWith reading a sized input in ranges ranges, or,
// when ranges is 0, in one per GOMAXPROCS and per splitBytes.
func readCSV(r io.Reader, schemaOf func(header []string) (Schema, error), ranges int) (*Table, error) {
	ra, from, to, sized := sizedInput(r)
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
	p := csvParse{header: header, perm: make([]int, len(header))}
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
		p.perm[i] = pos
	}

	b, err := NewBuilder(sch)
	if err != nil {
		return nil, err
	}
	if sized {
		from += rr.off
		if ranges == 0 {
			ranges = int(max(1, min(int64(runtime.GOMAXPROCS(0)), (to-from)/splitBytes)))
		}
		b.nrows, err = p.split(rr, ra, from, to, ranges, b.cols)
		leaveAtEnd(r)
	} else {
		b.nrows, err = p.run(rr, b.cols, -1)
	}
	if err != nil {
		return nil, err
	}
	for _, c := range b.cols {
		if c, ok := c.(*intColumn); ok {
			// appendCell grows int columns without invalidating their
			// memos; drop them once here.
			c.invalidate()
		}
	}
	return b.Build()
}

// sizedInput returns what ReadCSV reads of r at offsets: its unread
// bytes, [from, to) of ra. ok is false for a reader that is not a sized
// input.
func sizedInput(r io.Reader) (ra io.ReaderAt, from, to int64, ok bool) {
	switch r := r.(type) {
	case *bytes.Reader:
		return r, r.Size() - int64(r.Len()), r.Size(), true
	case *strings.Reader:
		return r, r.Size() - int64(r.Len()), r.Size(), true
	case *bytes.Buffer:
		return bytes.NewReader(r.Bytes()), 0, int64(r.Len()), true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return nil, 0, 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, 0, 0, false
		}
		return r, off, fi.Size(), true
	}
	return nil, 0, 0, false
}

// leaveAtEnd leaves a sized input where a one-pass read leaves it: at
// its end, and a *bytes.Buffer drained.
func leaveAtEnd(r io.Reader) {
	switch r := r.(type) {
	case *bytes.Buffer:
		r.Reset()
	case io.Seeker:
		// The table is read whatever the offset; a reader that cannot
		// seek to its end is left where its last read stopped.
		_, _ = r.Seek(0, io.SeekEnd)
	}
}

// csvParse appends a CSV stream's records to a table's columns: cell i
// of a record, in the column the header names header[i], goes to column
// perm[i].
type csvParse struct {
	header []string
	perm   []int
}

// run appends the next records rr reads to cols, up to limit of them or
// all when limit is negative, and returns how many it appended.
func (p *csvParse) run(rr *recordReader, cols []Column, limit int) (int, error) {
	perm, n := p.perm, 0
	for ; n != limit; n++ {
		cells, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if len(cells) != len(perm) {
			return n, fmt.Errorf("table: csv line %d: %w: got %d cells, want %d", rr.start, ErrArity, len(cells), len(perm))
		}
		for i, cell := range cells {
			if err := appendCell(cols[perm[i]], cell); err != nil {
				return n, fmt.Errorf("table: csv line %d: column %q: %w", rr.start, p.header[i], err)
			}
		}
	}
	return n, nil
}

// split reads the records of a sized input, bytes [from, to) of ra, into
// cols, reserved at their count, and returns how many it read. rr, which
// has read the header, reads the first of up to ranges record ranges,
// and goroutines started here read the others, each into its own window
// of the columns' rows. Each column then absorbs its windows: the later
// ranges' dictionaries are merged in range order and their codes
// remapped, so every code is the one a single pass gives. The error is
// that of the first range that failed. One range is read on the calling
// goroutine alone.
func (p *csvParse) split(rr *recordReader, ra io.ReaderAt, from, to int64, ranges int, cols []Column) (int, error) {
	rows, parts, err := countRecords(ra, from, to, ranges, rr.line)
	if err != nil {
		return 0, err
	}
	// A record's commas and line break take a byte per header name, but
	// for a last record with no line break. A count past what the bytes
	// hold can only come from records the read rejects, or from empty
	// lines; no storage is set aside for them.
	if most := int((to - from + 1) / int64(len(p.perm))); rows > most {
		rows, parts = most, parts[:1]
	}
	reserveRows(cols, rows)
	if len(parts) == 1 {
		return p.run(rr, cols, -1)
	}
	last := len(parts) - 1
	wins := make([][]Column, len(parts))
	read := make([]int, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := last; i >= 0; i-- {
		lo, hi, end := parts[i].row, rows, to
		if i < last {
			hi, end = parts[i+1].row, parts[i+1].off
		}
		wins[i] = make([]Column, len(cols))
		for c, col := range cols {
			wins[i][c] = window(col, lo, hi)
		}
		if i == 0 {
			// ReadAt leaves rr's reader where the header left it; it reads
			// on past the range, so the range stops at its count.
			read[0], errs[0] = p.runWindow(rr, wins[0], hi-lo, false, parts[0].line)
			break
		}
		sub := &recordReader{br: bufio.NewReaderSize(io.NewSectionReader(ra, parts[i].off, end-parts[i].off), csvBufSize), line: parts[i].line}
		wg.Add(1)
		go func() {
			defer wg.Done()
			read[i], errs[i] = p.runWindow(sub, wins[i], hi-lo, i == last, parts[i].line)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	rows = parts[last].row + read[last]
	// The columns absorb their windows, and are frozen as Build would
	// freeze them, on as many goroutines as there were ranges.
	var next atomic.Int64
	finish := func() {
		for c := int(next.Add(1)) - 1; c < len(cols); c = int(next.Add(1)) - 1 {
			for i, win := range wins {
				absorb(cols[c], win[c], i == 0)
			}
			setLen(cols[c], rows)
			if f, ok := cols[c].(freezer); ok {
				f.freeze()
			}
		}
	}
	for range parts[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finish()
		}()
	}
	finish()
	wg.Wait()
	return rows, nil
}

// runWindow reads a range, which started after line physical lines, into
// its windows, which hold want records: all of its records, or for the
// last range, which reads to the end of the input, at least as many.
func (p *csvParse) runWindow(rr *recordReader, win []Column, want int, last bool, line int) (int, error) {
	limit := want
	if last {
		limit = -1
	}
	n, err := p.run(rr, win, limit)
	if err == nil && (n > want || n < want && !last) {
		err = fmt.Errorf("table: csv changed while read: %d records counted after line %d, %d read", want, line, n)
	}
	return n, err
}

// csvRange is where a record range of a sized input starts: its first
// byte, the row of its first record and the physical lines before it.
type csvRange struct {
	off  int64
	row  int
	line int
}

// countRecords counts the records in bytes [from, to) of ra as
// recordReader reads them, after line physical lines, in one pass, and
// splits them into at most ranges record ranges: each range after the
// first starts at the first line start outside a record at or after its
// equal share of the bytes. The count is exact up to the last range's
// start. In the last range, a stretch of whole lines with no quote byte
// counts a record per line break, so the count bounds its records and
// exceeds them only by the empty lines there.
func countRecords(ra io.ReaderAt, from, to int64, ranges, line int) (int, []csvRange, error) {
	var cuts []int64
	for i := 1; i < ranges; i++ {
		if at := from + (to-from)*int64(i)/int64(ranges); at > from {
			cuts = append(cuts, at)
		}
	}
	c := csvCount{lines: line}
	parts, err := c.scan(ra, make([]byte, countBufSize), from, to, cuts, []csvRange{{off: from, line: line}})
	return c.rows, parts, err
}

// csvCount is a record count under way: the records begun and the line
// breaks passed, whether the record under way has an odd number of
// quote bytes behind it, and the line under way: its bytes so far, its
// first byte and the parity of its quote bytes.
type csvCount struct {
	rows, lines int
	odd         bool
	n           int
	first       byte
	q           bool
}

// scan counts bytes [from, to) of ra, read through buf, as recordReader
// reads them: CRLF reads as LF, an empty line is skipped, and a record
// ends at the first line end with an even number of quote bytes behind
// it. At the first line start that is at or after cuts[0] and outside
// any record, scan starts a range, appended to parts, and drops every
// cut it passed. Once no cut is left, whole lines with no quote byte
// count a record per line break, empty or not.
func (c *csvCount) scan(ra io.ReaderAt, buf []byte, from, to int64, cuts []int64, parts []csvRange) ([]csvRange, error) {
	for off := from; off < to; {
		n, err := ra.ReadAt(buf[:min(int64(len(buf)), to-off)], off)
		b := buf[:n]
		quotes := bytes.IndexByte(b, '"') >= 0
		for len(b) > 0 {
			at := off + int64(n-len(b))
			if c.n == 0 && !c.odd && len(cuts) > 0 && cuts[0] <= at {
				parts = append(parts, csvRange{off: at, row: c.rows, line: c.lines})
				for len(cuts) > 0 && cuts[0] <= at {
					cuts = cuts[1:]
				}
			}
			if !quotes && c.n == 0 && !c.odd {
				// Each whole line before the next cut is a record or empty.
				end := bytes.LastIndexByte(b, '\n') + 1
				if len(cuts) > 0 && cuts[0]-at < int64(end) {
					cut := int(cuts[0] - at)
					end = cut + bytes.IndexByte(b[cut-1:], '\n')
				}
				if end > 0 {
					var rows, lines int
					if len(cuts) > 0 {
						rows, lines = plainLines(b[:end])
					} else {
						lines = bytes.Count(b[:end], []byte{'\n'})
						rows = lines
					}
					c.rows, c.lines = c.rows+rows, c.lines+lines
					b = b[end:]
					continue
				}
			}
			i := bytes.IndexByte(b, '\n')
			line := b
			if i >= 0 {
				line = b[:i]
			}
			if len(line) > 0 {
				if c.n == 0 {
					c.first = line[0]
				}
				c.n += len(line)
				if quotes && bytes.Count(line, []byte{'"'})%2 == 1 {
					c.q = !c.q
				}
			}
			if i < 0 {
				break
			}
			c.endLine()
			c.lines++
			b = b[i+1:]
		}
		off += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return parts, fmt.Errorf("table: read csv: %w", err)
		}
	}
	if c.n > 0 {
		// The last line has no line break.
		c.endLine()
	}
	return parts, nil
}

// plainLines counts the line breaks in b, which starts a line and
// holds no quote byte, and the lines among them that are not empty once
// a CR before their break is dropped.
func plainLines(b []byte) (rows, lines int) {
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return rows, lines
		}
		if i > 1 || i == 1 && b[0] != '\r' {
			rows++
		}
		lines++
		b = b[i+1:]
	}
}

// endLine ends the line under way. Outside a record, a line that is not
// empty once its CR is dropped begins one.
func (c *csvCount) endLine() {
	if c.odd {
		c.odd = !c.q
	} else if c.n > 1 || c.n == 1 && c.first != '\r' {
		c.rows++
		c.odd = c.q
	}
	c.n, c.q = 0, false
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

// WriteCSV formats a table of at least parallelWriteRows rows in blocks
// of writeBlockRows rows on GOMAXPROCS goroutines; a smaller table, or
// any at GOMAXPROCS 1, is written row by row on the calling goroutine.
// In BenchmarkWriteCSVBlocks on two vCPUs, two blocks (1,024 rows) were
// written about as fast on two workers as on one, and from three blocks
// (1,536 rows) 27 to 47 % faster in every run.
const (
	writeBlockRows    = 512
	parallelWriteRows = 3 * writeBlockRows
)

// WriteCSV writes the table with a header row. Any table ReadCSV
// returns writes back to a stream ReadCSV reads as an equal table.
// Fields are written exactly as encoding/csv writes them; a string
// column's dictionary entry is rendered once, the first time a row
// holds it, so a row costs byte appends. A large table is formatted in
// row blocks on up to GOMAXPROCS goroutines and written in row order;
// the bytes are the same.
func (t *Table) WriteCSV(w io.Writer) error {
	workers := 1
	if t.nrows >= parallelWriteRows {
		workers = runtime.GOMAXPROCS(0)
	}
	return t.writeCSV(w, workers, writeBlockRows)
}

// writeCSV is WriteCSV formatting blocks of block rows on workers
// goroutines, or every row on the calling goroutine when workers is 1
// or the rows fill only one block.
func (t *Table) writeCSV(w io.Writer, workers, block int) error {
	bw := bufio.NewWriterSize(w, csvBufSize)
	f := newRowFormatter(t)
	var row []byte
	for _, name := range t.schema.Names() {
		row = f.appendField(row, name)
	}
	if _, err := bw.Write(endRow(row, 0)); err != nil {
		return fmt.Errorf("table: write csv header: %w", err)
	}
	// No worker is started without a block of its own.
	if workers = min(workers, (t.nrows+block-1)/block); workers < 2 {
		for r := 0; r < t.nrows; r++ {
			row = f.appendRows(row[:0], r, r+1)
			if _, err := bw.Write(row); err != nil {
				return fmt.Errorf("table: write csv row %d: %w", r, err)
			}
		}
	} else if err := t.writeBlocks(bw, f, workers, block); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("table: write csv: %w", err)
	}
	return nil
}

// writeBlocks formats the rows in blocks of block rows on workers
// goroutines, the first through f and each other through a formatter
// that shares f's rendered entries, and writes the blocks through bw in
// row order. At most two blocks per worker are in flight, and their
// buffers are reused. A write error stops the dispatch; every worker has
// returned before writeBlocks does.
func (t *Table) writeBlocks(bw *bufio.Writer, f *rowFormatter, workers, block int) error {
	type rowBlock struct {
		lo, hi int
		buf    []byte
		done   chan struct{}
	}
	// A block's buffer is reserved at a quarter more than the first
	// row's bytes times the block's rows, so it is seldom grown.
	size := block * len(f.appendRows(nil, 0, 1)) * 5 / 4
	// Both queues hold every block in flight, so a dispatch never waits.
	work := make(chan *rowBlock, 2*workers)
	order := make(chan *rowBlock, 2*workers)
	free := make([]*rowBlock, 2*workers)
	for i := range free {
		free[i] = &rowBlock{buf: make([]byte, 0, size), done: make(chan struct{}, 1)}
	}
	var wg sync.WaitGroup
	defer func() {
		close(work)
		wg.Wait()
	}()
	for i := 0; i < workers; i++ {
		if i > 0 {
			f = f.sharing()
		}
		wg.Add(1)
		go func(f *rowFormatter) {
			defer wg.Done()
			for b := range work {
				b.buf = f.appendRows(b.buf[:0], b.lo, b.hi)
				b.done <- struct{}{}
			}
		}(f)
	}
	for next := 0; next < t.nrows || len(order) > 0; {
		for ; next < t.nrows && len(free) > 0; next += block {
			b := free[len(free)-1]
			free = free[:len(free)-1]
			b.lo, b.hi = next, min(next+block, t.nrows)
			work <- b
			order <- b
		}
		b := <-order
		<-b.done
		if _, err := bw.Write(b.buf); err != nil {
			return fmt.Errorf("table: write csv row %d: %w", b.lo, err)
		}
		free = append(free, b)
	}
	return nil
}

// rowFormatter formats a table's rows as WriteCSV writes them.
// cells[c][code] points at string column c's entry code rendered with
// its trailing comma, or is nil until a row holds it. The formatters of
// one write share cells: an entry is rendered by the first formatter to
// meet it, into that formatter's arena, and published to the others;
// formatters that meet it at once render the same bytes, and either
// copy serves. Fields are rendered through one reused csv.Writer.
type rowFormatter struct {
	t        *Table
	cells    [][]atomic.Pointer[[]byte]
	arena    []byte
	rendered [][]byte
	field    bytes.Buffer
	cw       *csv.Writer
}

func newRowFormatter(t *Table) *rowFormatter {
	cells := make([][]atomic.Pointer[[]byte], len(t.cols))
	for c, col := range t.cols {
		if sc, ok := col.(*stringColumn); ok {
			cells[c] = make([]atomic.Pointer[[]byte], len(sc.dict))
		}
	}
	f := &rowFormatter{t: t, cells: cells}
	f.cw = csv.NewWriter(&f.field)
	return f
}

// sharing returns a formatter of f's table that shares f's rendered
// entries.
func (f *rowFormatter) sharing() *rowFormatter {
	g := &rowFormatter{t: f.t, cells: f.cells}
	g.cw = csv.NewWriter(&g.field)
	return g
}

// appendField appends s as encoding/csv writes it as a field, and a
// comma. encoding/csv reads a CRLF inside a quoted field back as LF, but
// reads "\r\r\n" as CRLF, so a CRLF is written doubled.
func (f *rowFormatter) appendField(dst []byte, s string) []byte {
	f.field.Reset()
	f.cw.Write([]string{strings.ReplaceAll(s, "\r\n", "\r\r\n")})
	f.cw.Flush()
	b := f.field.Bytes()
	return append(append(dst, b[:len(b)-1]...), ',')
}

// render renders a dictionary entry into f's arena and returns where it
// is kept. An entry's bytes, and where it is kept, are never written
// again: the arena and the list of kept entries only grow, into new
// arrays when they are full.
func (f *rowFormatter) render(s string) *[]byte {
	at := len(f.arena)
	f.arena = f.appendField(f.arena, s)
	f.rendered = append(f.rendered, f.arena[at:len(f.arena):len(f.arena)])
	return &f.rendered[len(f.rendered)-1]
}

// appendRows appends rows [lo, hi), each with its line break.
func (f *rowFormatter) appendRows(dst []byte, lo, hi int) []byte {
	for r := lo; r < hi; r++ {
		start := len(dst)
		for c, col := range f.t.cols {
			switch col := col.(type) {
			case *stringColumn:
				code := col.Code(r)
				cell := f.cells[c][code].Load()
				if cell == nil {
					cell = f.render(col.dict[code])
					f.cells[c][code].Store(cell)
				}
				dst = append(dst, *cell...)
			case *intColumn:
				dst = append(strconv.AppendInt(dst, col.vals[r], 10), ',')
			case *floatColumn:
				dst = append(strconv.AppendFloat(dst, col.vals[r], 'g', -1, 64), ',')
			default:
				dst = f.appendField(dst, col.Value(r).Str())
			}
		}
		if len(dst)-start == 1 {
			// encoding/csv writes a lone empty field as an empty line,
			// which its reader skips; quote it so the row reads back.
			dst = append(dst[:start], `"",`...)
		}
		dst = endRow(dst, start)
	}
	return dst
}

// endRow turns the comma after the last field of the row that starts at
// start into its line break.
func endRow(row []byte, start int) []byte {
	if len(row) == start {
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
