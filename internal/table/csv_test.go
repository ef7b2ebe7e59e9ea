package table

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCSVLinesLongerThanBuffer reads and writes quoted and unquoted
// lines longer than the read buffer, which arrive in several pieces,
// through each reader FuzzReadCSV uses, and compares both directions
// with the reference reader and writer.
func TestCSVLinesLongerThanBuffer(t *testing.T) {
	long := strings.Repeat("x", csvBufSize+10)
	quoted := strings.Repeat(`a,""b`+"\n", csvBufSize/3)
	in := "S,I,F\n" +
		long + ",1,2\n" +
		`"` + quoted + `",3,4` + "\r\n" +
		"short,5,6\n" +
		`"` + long + `,""z",7,8` + "\n" +
		" " + long + "y ,9,10"
	schema := MustSchema(
		Field{Name: "S", Type: String},
		Field{Name: "I", Type: Int},
		Field{Name: "F", Type: Float},
	)
	ref, err := readCSVRef(strings.NewReader(in), &schema)
	if err != nil {
		t.Fatalf("reference ReadCSV: %v", err)
	}
	var tbl *Table
	for _, rd := range csvReaders(in) {
		if tbl, err = rd.read(&schema); err != nil {
			t.Fatalf("%s reader: ReadCSV: %v", rd.name, err)
		}
		sameTable(t, rd.name+" reader against the reference", ref, tbl)
	}
	if tbl.NumRows() != 5 {
		t.Fatalf("%d rows, want 5", tbl.NumRows())
	}
	if got := tbl.ColumnAt(0).Value(1).Str(); got != strings.ReplaceAll(strings.TrimSpace(quoted), `""`, `"`) {
		t.Errorf("quoted cell of %d bytes read as %d bytes", len(quoted), len(got))
	}

	var buf, refBuf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := tbl.writeCSVRef(&refBuf); err != nil {
		t.Fatalf("reference WriteCSV: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
		t.Fatal("WriteCSV and the reference writer disagree on long lines")
	}
}

// TestReadCSVRangesMatchOnePass reads inputs of many count buffers,
// mixing plain records, quoted ones that span lines, CRLF and blank
// lines, in one to five record ranges, from a strings.Reader, a
// bytes.Buffer and a file, and compares each table with the reference's;
// the buffer is left drained and the file at its end. A bad cell late in
// the input must give every range count the one-range read's error.
func TestReadCSVRangesMatchOnePass(t *testing.T) {
	schema := MustSchema(Field{Name: "S", Type: String}, Field{Name: "I", Type: Int}, Field{Name: "F", Type: Float})
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		var in strings.Builder
		in.WriteString("S,I,F\n")
		for in.Len() < 6*countBufSize {
			s := fmt.Sprintf("v%d", rng.Intn(40+trial*400))
			switch rng.Intn(8) {
			case 0:
				s = fmt.Sprintf("\"%s,\n%s\r\n\"\"x\"", s, strings.Repeat("q\n", rng.Intn(4)))
			case 1:
				in.WriteString("\n")
			case 2:
				in.WriteString("\r\n")
			}
			end := "\n"
			if trial%2 == 1 {
				end = "\r\n"
			}
			fmt.Fprintf(&in, "%s,%d,%g%s", s, rng.Intn(100), float64(rng.Intn(9))/4, end)
		}
		ref, err := readCSVRef(strings.NewReader(in.String()), &schema)
		if err != nil {
			t.Fatalf("trial %d: reference ReadCSV: %v", trial, err)
		}
		path := filepath.Join(t.TempDir(), "in.csv")
		if err := os.WriteFile(path, []byte(in.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		bad := in.String() + "late,x,1\n"
		_, want := readCSV(strings.NewReader(bad), schemaOr(&schema), 1)
		for ranges := 1; ranges <= 5; ranges++ {
			tbl, err := readCSV(strings.NewReader(in.String()), schemaOr(&schema), ranges)
			if err != nil {
				t.Fatalf("trial %d, %d ranges: ReadCSV: %v", trial, ranges, err)
			}
			sameTable(t, fmt.Sprintf("trial %d, %d ranges", trial, ranges), ref, tbl)
			buf := bytes.NewBufferString(in.String())
			if tbl, err = readCSV(buf, schemaOr(&schema), ranges); err != nil {
				t.Fatalf("trial %d, %d ranges: ReadCSV of a bytes.Buffer: %v", trial, ranges, err)
			}
			sameTable(t, fmt.Sprintf("trial %d, %d ranges of a bytes.Buffer", trial, ranges), ref, tbl)
			if buf.Len() != 0 {
				t.Fatalf("trial %d, %d ranges: bytes.Buffer left %d bytes unread", trial, ranges, buf.Len())
			}
			if tbl, err = readCSV(file, schemaOr(&schema), ranges); err != nil {
				t.Fatalf("trial %d, %d ranges: ReadCSV of a file: %v", trial, ranges, err)
			}
			sameTable(t, fmt.Sprintf("trial %d, %d ranges of a file", trial, ranges), ref, tbl)
			if off, err := file.Seek(0, io.SeekCurrent); err != nil || off != int64(in.Len()) {
				t.Fatalf("trial %d, %d ranges: file left at offset %d of %d (%v)", trial, ranges, off, in.Len(), err)
			}
			if _, err := file.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			if _, err := readCSV(strings.NewReader(bad), schemaOr(&schema), ranges); fmt.Sprint(err) != fmt.Sprint(want) || want == nil {
				t.Fatalf("trial %d, %d ranges: error %v, one range's %v", trial, ranges, err, want)
			}
		}
	}
}

// TestReadCSVReservesWhatTheBytesHold: a record takes a byte per header
// name at least, its commas and line break, so a 50-name header over
// 100,000 one-cell lines, which the read rejects at its first record, is
// not reserved 100,000 rows of 50 columns (20 MB): the String columns'
// 4 B codes get at most 4 B per input byte, beside the read and count
// buffers.
func TestReadCSVReservesWhatTheBytesHold(t *testing.T) {
	var in strings.Builder
	for c := 0; c < 50; c++ {
		if c > 0 {
			in.WriteByte(',')
		}
		fmt.Fprintf(&in, "c%d", c)
	}
	in.WriteByte('\n')
	for r := 0; r < 100000; r++ {
		in.WriteString("1\n")
	}
	allocated := bytesPerRun(1, func() {
		if _, err := ReadCSV(strings.NewReader(in.String()), nil); !errors.Is(err, ErrArity) {
			t.Fatalf("ReadCSV returned %v, want an arity error", err)
		}
	})
	if limit := 4*in.Len() + csvBufSize + countBufSize + 64<<10; allocated > float64(limit) {
		t.Errorf("rejecting %d bytes allocated %.0f bytes, bound %d", in.Len(), allocated, limit)
	}
}

// TestCSVAllocsIndependentOfRows pins that reading and writing allocate
// per buffer and per dictionary value, not per cell. A sized read
// reserves each column once: eight times the rows add at most two
// allocations, and each added row at most 1.25 times the columns' own
// storage (a String code 4 B, an Int 8 B, a Float value and code 12 B,
// so 30 B here). An unsized read, and the write, may add only the few
// allocations of growing each column.
func TestCSVAllocsIndependentOfRows(t *testing.T) {
	schema := MustSchema(
		Field{Name: "S", Type: String},
		Field{Name: "I", Type: Int},
		Field{Name: "F", Type: Float},
	)
	const storage = 4 + 8 + 12
	type cost struct{ sized, sizedBytes, unsized, write float64 }
	measure := func(rows int) (c cost) {
		var in bytes.Buffer
		in.WriteString("S,I,F\n")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&in, "value-%d,%d,%g\n", r%7, r*31, float64(r%5)/4)
		}
		var tbl *Table
		read := func(r io.Reader) {
			var err error
			if tbl, err = ReadCSV(r, &schema); err != nil {
				t.Fatalf("ReadCSV: %v", err)
			}
		}
		c.sized = testing.AllocsPerRun(5, func() { read(bytes.NewReader(in.Bytes())) })
		c.sizedBytes = bytesPerRun(5, func() { read(bytes.NewReader(in.Bytes())) })
		c.unsized = testing.AllocsPerRun(5, func() { read(struct{ io.Reader }{bytes.NewReader(in.Bytes())}) })
		c.write = testing.AllocsPerRun(5, func() {
			if err := tbl.WriteCSV(io.Discard); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
		})
		return c
	}
	c1k, c8k := measure(1000), measure(8000)
	perRow := (c8k.sizedBytes - c1k.sizedBytes) / 7000
	t.Logf("from 1,000 to 8,000 rows: sized read %.0f -> %.0f allocations, %.1f B/row added; unsized read %.0f -> %.0f; write %.0f -> %.0f",
		c1k.sized, c8k.sized, perRow, c1k.unsized, c8k.unsized, c1k.write, c8k.write)
	if c8k.sized-c1k.sized > 2 {
		t.Errorf("sized ReadCSV allocations grow with rows: %.0f at 1,000, %.0f at 8,000", c1k.sized, c8k.sized)
	}
	if limit := 1.25 * storage; perRow > limit {
		t.Errorf("sized ReadCSV allocates %.1f B per added row, bound %.0f B (1.25 times the columns' %d B)", perRow, limit, storage)
	}
	if c8k.unsized-c1k.unsized >= 100 {
		t.Errorf("unsized ReadCSV allocations grow with rows: %.0f at 1,000, %.0f at 8,000", c1k.unsized, c8k.unsized)
	}
	if c8k.write-c1k.write >= 100 {
		t.Errorf("WriteCSV allocations grow with rows: %.0f at 1,000, %.0f at 8,000", c1k.write, c8k.write)
	}
}

// TestWriteCSVStopsOnWriteError: a writer that fails partway through
// gets its error back from WriteCSV, from the calling goroutine and from
// three workers formatting 16-row blocks alike, and no goroutine the
// write started outlives it.
func TestWriteCSVStopsOnWriteError(t *testing.T) {
	schema := MustSchema(Field{Name: "S", Type: String}, Field{Name: "I", Type: Int})
	rows := make([][]Value, 20000)
	for r := range rows {
		rows[r] = []Value{SV(fmt.Sprintf("value-%d", r%13)), IV(int64(r))}
	}
	tbl, err := FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	full := errors.New("disk full")
	start := runtime.NumGoroutine()
	for _, workers := range []int{1, 3} {
		w := &failingWriter{room: 100 << 10, err: full}
		if err := tbl.writeCSV(w, workers, 16); !errors.Is(err, full) {
			t.Errorf("%d workers: WriteCSV returned %v, want the writer's error", workers, err)
		}
	}
	// A worker has returned before the write does, but may not have
	// left the scheduler's count yet.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines after the failed writes, %d before", n, start)
	}
}

// TestWriteCSVSharesRenderedEntries: a gathered table keeps its
// source's dictionary, and the formatters of one write share a single
// index of its rendered entries, 8 B per dictionary value. So 10,000 rows
// gathered from 200,000 values instead of 40,000 and written on three
// workers allocate one more 8 B slot per added value, and a quarter more
// at most; an index per worker would allocate three.
func TestWriteCSVSharesRenderedEntries(t *testing.T) {
	schema := MustSchema(Field{Name: "ID", Type: String}, Field{Name: "I", Type: Int})
	const rows = 10000
	written := func(dict int) float64 {
		values := make([][]Value, dict)
		for r := range values {
			values[r] = []Value{SV(fmt.Sprintf("id-%d", r)), IV(int64(r))}
		}
		src, err := FromRows(schema, values)
		if err != nil {
			t.Fatal(err)
		}
		pick := make([]int, rows)
		for i := range pick {
			pick[i] = i * (dict / rows)
		}
		tbl, err := src.Gather(pick)
		if err != nil {
			t.Fatal(err)
		}
		return bytesPerRun(3, func() {
			if err := tbl.writeCSV(io.Discard, 3, writeBlockRows); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
		})
	}
	small, large := written(40000), written(200000)
	added, slots := large-small, 8.0*(200000-40000)
	t.Logf("writing %d gathered rows on three workers: %.0f bytes from 40,000 values, %.0f from 200,000", rows, small, large)
	if added > 1.25*slots {
		t.Errorf("160,000 more dictionary values added %.0f bytes to the write, bound %.0f (1.25 times one 8 B slot each)", added, 1.25*slots)
	}
}

// failingWriter accepts room bytes, then fails every write with err.
type failingWriter struct {
	room int
	err  error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, w.err
	}
	w.room -= len(p)
	return len(p), nil
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average bytes f
// allocates per call, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadCSVEstimateShapes reads two inputs whose first buffer
// misjudges the rows after it, which sized their columns wrongly while
// ReadCSV estimated its rows from that buffer: 64 KiB of "a,1" lines,
// then 20,000 lines holding one 200-byte string (too many rows
// estimated), and 64 KiB of the long lines, then 100,000 "a,2" lines
// (too few). Through each reader FuzzReadCSV uses, the tables must equal
// the reference's. A sized read counts its records, so from a
// strings.Reader, and in two ranges, each column's storage is reserved
// at exactly its rows, and the read allocates the columns' storage (a
// String code 4 B and an Int 8 B per row, and the packed codes) and its
// read and count buffers, with at most 16 KiB besides.
func TestReadCSVEstimateShapes(t *testing.T) {
	schema := MustSchema(Field{Name: "S", Type: String}, Field{Name: "I", Type: Int})
	long := strings.Repeat("b", 200) + ",1\n"
	var high, low strings.Builder
	high.WriteString("S,I\n")
	for high.Len() < csvBufSize {
		high.WriteString("a,1\n")
	}
	for i := 0; i < 20000; i++ {
		high.WriteString(long)
	}
	low.WriteString("S,I\n")
	for low.Len() < csvBufSize {
		low.WriteString(long)
	}
	for i := 0; i < 100000; i++ {
		low.WriteString("a,2\n")
	}
	for _, shape := range []struct{ name, in string }{{"too high", high.String()}, {"too low", low.String()}} {
		ref, err := readCSVRef(strings.NewReader(shape.in), &schema)
		if err != nil {
			t.Fatalf("%s: reference ReadCSV: %v", shape.name, err)
		}
		for _, rd := range csvReaders(shape.in) {
			tbl, err := rd.read(&schema)
			if err != nil {
				t.Fatalf("%s, %s reader: ReadCSV: %v", shape.name, rd.name, err)
			}
			sameTable(t, shape.name+", "+rd.name+" reader", ref, tbl)
		}

		rows := ref.NumRows()
		for _, ranges := range []int{1, 2} {
			tbl, err := readCSV(strings.NewReader(shape.in), schemaOr(&schema), ranges)
			if err != nil {
				t.Fatalf("%s, %d ranges: ReadCSV: %v", shape.name, ranges, err)
			}
			codes := tbl.ColumnAt(0).(*stringColumn).packed
			vals := tbl.ColumnAt(1).(*intColumn).vals
			if cap(vals) != rows || 64*cap(codes.words) >= rows*int(codes.width)+64 {
				t.Errorf("%s, %d ranges: %d rows kept capacity for %d int values and %d code bits", shape.name, ranges, rows, cap(vals), 64*cap(codes.words))
			}
		}
		allocated := bytesPerRun(1, func() {
			if _, err := ReadCSV(strings.NewReader(shape.in), &schema); err != nil {
				t.Fatalf("ReadCSV: %v", err)
			}
		})
		packed := (rows*int(codeWidth(2)) + 63) / 64 * 8
		want := rows*(4+8) + packed + csvBufSize + countBufSize
		t.Logf("%s: %d rows: reading %d bytes allocated %.0f bytes, %d of them columns and buffers", shape.name, rows, len(shape.in), allocated, want)
		if allocated > float64(want+16<<10) {
			t.Errorf("%s: reading %d rows allocated %.0f bytes, bound %d (columns and buffers %d, and 16 KiB)", shape.name, rows, allocated, want+16<<10, want)
		}
	}

	// An input the first buffer holds whole reserves its rows exactly, a
	// last line without a line break included.
	whole, err := ReadCSV(strings.NewReader("S,I\na,1\nb,2\nc,3"), &schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if vals := whole.ColumnAt(1).(*intColumn).vals; cap(vals) != len(vals) || len(vals) != 3 {
		t.Errorf("3 rows held whole in the first buffer kept capacity for %d", cap(vals))
	}
}

// adultSchema and adultShaped give benchmark input in the shape of the
// Adult extract the release workload reads: an Int age, four small
// String domains, and three Int columns that are mostly zero.
var adultSchema = MustSchema(
	Field{Name: "Age", Type: Int}, Field{Name: "MaritalStatus", Type: String},
	Field{Name: "Race", Type: String}, Field{Name: "Sex", Type: String},
	Field{Name: "Pay", Type: String}, Field{Name: "CapitalGain", Type: Int},
	Field{Name: "CapitalLoss", Type: Int}, Field{Name: "TaxPeriod", Type: Int},
)

func adultShaped(size int) []byte {
	marital := []string{"Never-married", "Married-civ-spouse", "Divorced", "Separated", "Widowed", "Married-spouse-absent", "Married-AF-spouse"}
	race := []string{"White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other"}
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	b.WriteString("Age,MaritalStatus,Race,Sex,Pay,CapitalGain,CapitalLoss,TaxPeriod\n")
	for b.Len() < size {
		gain, loss := 0, 0
		if rng.Intn(12) == 0 {
			gain = rng.Intn(99999)
		} else if rng.Intn(20) == 0 {
			loss = rng.Intn(4356)
		}
		fmt.Fprintf(&b, "%d,%s,%s,%s,%s,%d,%d,%d\n", 17+rng.Intn(74), marital[rng.Intn(len(marital))],
			race[rng.Intn(len(race))], [...]string{"Female", "Male"}[rng.Intn(2)],
			[...]string{"<=50K", ">50K"}[rng.Intn(2)], gain, loss, 1+rng.Intn(12))
	}
	return b.Bytes()
}

// BenchmarkReadCSVRanges reads Adult-shaped inputs of 16 KiB to 1 MiB in
// one record range and in two: the sizes at which two ranges start to
// win set splitBytes.
func BenchmarkReadCSVRanges(b *testing.B) {
	for _, kib := range []int{16, 32, 64, 128, 192, 256, 512, 1024} {
		in := adultShaped(kib << 10)
		for _, ranges := range []int{1, 2} {
			b.Run(fmt.Sprintf("kib=%d/ranges=%d", kib, ranges), func(b *testing.B) {
				b.SetBytes(int64(len(in)))
				for i := 0; i < b.N; i++ {
					if _, err := readCSV(bytes.NewReader(in), schemaOr(&adultSchema), ranges); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWriteCSVBlocks writes 512 to 8,192 Adult-shaped rows on the
// calling goroutine and in writeBlockRows blocks on two workers: the
// rows at which the blocks start to win set parallelWriteRows.
func BenchmarkWriteCSVBlocks(b *testing.B) {
	tbl, err := ReadCSV(bytes.NewReader(adultShaped(8192*48)), &adultSchema)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{512, 1024, 1536, 2048, 4096, 8192} {
		pick := make([]int, rows)
		for i := range pick {
			pick[i] = i
		}
		part, err := tbl.Gather(pick)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := part.writeCSV(io.Discard, workers, writeBlockRows); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
