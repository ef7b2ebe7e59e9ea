package table

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestCSVLinesLongerThanBuffer reads and writes quoted and unquoted
// lines longer than the read buffer, which arrive in several pieces,
// and compares both directions with the reference reader and writer.
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
	tbl, err := ReadCSV(strings.NewReader(in), &schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	ref, err := readCSVRef(strings.NewReader(in), &schema)
	if err != nil {
		t.Fatalf("reference ReadCSV: %v", err)
	}
	sameTable(t, "reference", ref, tbl)
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

// TestReadCSVEstimateShapes reads inputs whose first buffer misjudges
// the rows after it, through each reader FuzzReadCSV uses, and compares
// them with the reference. Too high: 64 KiB of "a,1" lines, then 20,000
// lines holding one 200-byte string, estimated at about a million rows.
// The reservation is capped, and each column is copied down to its
// rows, so capacity exceeds length by at most 1/8 and the read
// allocates at most 2.5 times its input. Too low: 64 KiB of the long
// lines, then 100,000 "a,2" lines, which outgrow the reservation. An
// input held whole in the first buffer reserves exactly its rows.
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
			tbl, err := ReadCSV(rd.r, &schema)
			if err != nil {
				t.Fatalf("%s, %s reader: ReadCSV: %v", shape.name, rd.name, err)
			}
			sameTable(t, shape.name+", "+rd.name+" reader", ref, tbl)
		}
	}

	// An input the first buffer holds whole reserves its line count, a
	// last line without a line break included.
	whole, err := ReadCSV(strings.NewReader("S,I\na,1\nb,2\nc,3"), &schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if vals := whole.ColumnAt(1).(*intColumn).vals; cap(vals) != len(vals) {
		t.Errorf("3 rows held whole in the first buffer kept capacity for %d", cap(vals))
	}

	in := high.String()
	tbl, err := ReadCSV(strings.NewReader(in), &schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	rows := tbl.NumRows()
	codes := tbl.ColumnAt(0).(*stringColumn).packed
	vals := tbl.ColumnAt(1).(*intColumn).vals
	t.Logf("%d rows: packed codes hold %d bits, int column capacity %d", rows, 64*cap(codes.words), cap(vals))
	if limit := rows + rows/8; cap(vals) > limit || 64*cap(codes.words) > limit*int(codes.width) {
		t.Errorf("%d rows kept capacity for %d int values and %d code bits, bound %d rows", rows, cap(vals), 64*cap(codes.words), limit)
	}
	allocated := bytesPerRun(1, func() {
		if _, err := ReadCSV(strings.NewReader(in), &schema); err != nil {
			t.Fatalf("ReadCSV: %v", err)
		}
	})
	t.Logf("reading %d bytes allocated %.0f bytes (%.2f times)", len(in), allocated, allocated/float64(len(in)))
	if allocated > 2.5*float64(len(in)) {
		t.Errorf("reading %d bytes allocated %.0f bytes, bound 2.5 times the input", len(in), allocated)
	}
}
