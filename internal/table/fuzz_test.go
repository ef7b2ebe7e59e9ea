package table

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV drives ReadCSV with arbitrary bytes: any input must
// either fail with an error or give a table that WriteCSV writes and
// ReadCSV reads back equal — same schema, same row count, same Str()
// per cell. typed picks the schema: nil (every column String, names
// from the header) or a String/Int/Float schema whose columns the
// header may list in any order. Seed corpus under testdata/fuzz.
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
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()), schema)
		if err != nil {
			t.Fatalf("written table does not read back: %v\nwritten: %q", err, buf.String())
		}
		if !back.Schema().Equal(tbl.Schema()) {
			t.Fatalf("schema %v read back as %v", tbl.Schema(), back.Schema())
		}
		if back.NumRows() != tbl.NumRows() {
			t.Fatalf("%d rows read back as %d\nwritten: %q", tbl.NumRows(), back.NumRows(), buf.String())
		}
		for c := 0; c < tbl.NumCols(); c++ {
			in, out := tbl.ColumnAt(c), back.ColumnAt(c)
			for r := 0; r < tbl.NumRows(); r++ {
				if a, b := in.Value(r).Str(), out.Value(r).Str(); a != b {
					t.Fatalf("row %d column %d: %q read back as %q", r, c, a, b)
				}
			}
		}
	})
}
