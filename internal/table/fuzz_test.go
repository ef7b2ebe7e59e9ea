package table

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV drives ReadCSV with arbitrary bytes. ReadCSV must agree
// with readCSVRef, the encoding/csv-based reader it replaced: both fail,
// or both give equal tables — same schema and rows, same Str() and
// Code() per cell, so even first-appearance dictionary order matches.
// WriteCSV must write the bytes writeCSVRef writes, and what it writes
// must read back as an equal table. typed picks the schema: nil (every
// column String, names from the header) or a String/Int/Float schema
// whose columns the header may list in any order. Seed corpus under
// testdata/fuzz.
func FuzzReadCSV(f *testing.F) {
	f.Add("A,B\n1,x\n, \n", false)
	f.Add("S,I,F\nx,1,1.5\n\"a,\"\"b\"\"\",-3,1e300\n", true)
	f.Add("F,S,I\nNaN, q ,+7\n-0,\"line\nbreak\",0\n", true)
	f.Fuzz(func(t *testing.T, data string, typed bool) {
		var schema *Schema
		if typed {
			s := MustSchema(
				Field{Name: "S", Type: String},
				Field{Name: "I", Type: Int},
				Field{Name: "F", Type: Float},
			)
			schema = &s
		}
		tbl, err := ReadCSV(strings.NewReader(data), schema)
		ref, refErr := readCSVRef(strings.NewReader(data), schema)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadCSV error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		sameTable(t, "reference", ref, tbl)

		var buf, refBuf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		if err := tbl.writeCSVRef(&refBuf); err != nil {
			t.Fatalf("reference WriteCSV: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
			t.Fatalf("WriteCSV wrote %q, reference wrote %q", buf.String(), refBuf.String())
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()), schema)
		if err != nil {
			t.Fatalf("written table does not read back: %v\nwritten: %q", err, buf.String())
		}
		sameTable(t, "read back", tbl, back)
	})
}

// sameTable fails unless got has want's schema, rows, and Str() and
// Code() per cell.
func sameTable(t *testing.T, what string, want, got *Table) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema %v, want %v", what, got.Schema(), want.Schema())
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", what, got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		w, g := want.ColumnAt(c), got.ColumnAt(c)
		for r := 0; r < want.NumRows(); r++ {
			if a, b := w.Value(r).Str(), g.Value(r).Str(); a != b {
				t.Fatalf("%s: row %d column %d: %q, want %q", what, r, c, b, a)
			}
			if a, b := w.Code(r), g.Code(r); a != b {
				t.Fatalf("%s: row %d column %d: code %d, want %d", what, r, c, b, a)
			}
		}
	}
}
