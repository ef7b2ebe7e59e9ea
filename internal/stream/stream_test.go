package stream

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	in := []Batch{
		{Columns: []string{"Sex", "ZipCode"}, Append: [][]string{{"M", "41076"}}},
		{Retire: []int{3, 7}},
		{Append: [][]string{{"F", "41099"}, {"M", "43102"}}, Retire: []int{0}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var out []Batch
	for {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed batches:\n in %+v\nout %+v", in, out)
	}
	if r.Line() != 3 {
		t.Fatalf("Line() = %d, want 3", r.Line())
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	r := NewReader(strings.NewReader("\n  \n{\"retire\":[1]}\n\n"))
	b, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Retire) != 1 || b.Retire[0] != 1 {
		t.Fatalf("got %+v", b)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not json\n",
		"[1,2,3]\n",
		`{"retire": "x"}` + "\n",
		`{"append": [3]}` + "\n",
	} {
		if _, err := NewReader(strings.NewReader(in)).Next(); err == nil || err == io.EOF {
			t.Errorf("input %q: want a parse error, got %v", in, err)
		}
	}
}

func TestReaderCapsLineLength(t *testing.T) {
	long := `{"retire":[` + strings.Repeat("1,", MaxLineBytes/2) + "1]}\n"
	if _, err := NewReader(strings.NewReader(long)).Next(); err == nil || err == io.EOF {
		t.Fatalf("oversized line accepted: %v", err)
	}
}

func TestValidate(t *testing.T) {
	cols := []string{"Sex", "ZipCode"}
	ok := Batch{Columns: cols, Append: [][]string{{"M", "41076"}}, Retire: []int{0}}
	if err := ok.Validate(cols); err != nil {
		t.Fatal(err)
	}
	if err := (Batch{Columns: []string{"Sex"}}).Validate(cols); err == nil {
		t.Fatal("column count mismatch accepted")
	}
	if err := (Batch{Columns: []string{"Sex", "Zip"}}).Validate(cols); err == nil {
		t.Fatal("column name mismatch accepted")
	}
	if err := (Batch{Append: [][]string{{"M"}}}).Validate(cols); err == nil {
		t.Fatal("short row accepted")
	}
	if err := (Batch{Retire: []int{-1}}).Validate(cols); err == nil {
		t.Fatal("negative retire id accepted")
	}
}

func TestWriteBatchCapsSize(t *testing.T) {
	big := Batch{Append: [][]string{{strings.Repeat("x", MaxLineBytes)}}}
	if err := WriteBatch(io.Discard, big); err == nil {
		t.Fatal("oversized batch encoded")
	}
}
