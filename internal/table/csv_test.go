package table

import (
	"bytes"
	"fmt"
	"io"
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
// per buffer and per dictionary value, not per cell: eight times the
// rows may add only the few allocations of growing each column.
func TestCSVAllocsIndependentOfRows(t *testing.T) {
	schema := MustSchema(
		Field{Name: "S", Type: String},
		Field{Name: "I", Type: Int},
		Field{Name: "F", Type: Float},
	)
	allocs := func(rows int) (read, write float64) {
		var in bytes.Buffer
		in.WriteString("S,I,F\n")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&in, "value-%d,%d,%g\n", r%7, r*31, float64(r%5)/4)
		}
		var tbl *Table
		read = testing.AllocsPerRun(5, func() {
			var err error
			if tbl, err = ReadCSV(bytes.NewReader(in.Bytes()), &schema); err != nil {
				t.Fatalf("ReadCSV: %v", err)
			}
		})
		write = testing.AllocsPerRun(5, func() {
			if err := tbl.WriteCSV(io.Discard); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
		})
		return read, write
	}
	read1k, write1k := allocs(1000)
	read8k, write8k := allocs(8000)
	t.Logf("allocations at 1,000 and 8,000 rows: read %.0f -> %.0f, write %.0f -> %.0f", read1k, read8k, write1k, write8k)
	if read8k-read1k >= 100 {
		t.Errorf("ReadCSV allocations grow with rows: %.0f at 1,000, %.0f at 8,000", read1k, read8k)
	}
	if write8k-write1k >= 100 {
		t.Errorf("WriteCSV allocations grow with rows: %.0f at 1,000, %.0f at 8,000", write1k, write8k)
	}
}
