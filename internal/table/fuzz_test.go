package table

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

// FuzzReadCSV drives ReadCSV with arbitrary bytes, through four
// readers: a strings.Reader, whose records are counted up front, the
// same reader with its length hidden, iotest.OneByteReader over it,
// which serves one byte per read, and a strings.Reader read in three
// record ranges whatever its size, which parses them concurrently and
// merges their dictionaries. Through each, ReadCSV must agree with
// readCSVRef, the encoding/csv-based reader it replaced: both fail, or
// both give equal tables — same schema and rows, same Str() and Code()
// per cell, so even first-appearance dictionary order matches — and the
// four readers must return the same error. WriteCSV, on the calling
// goroutine and on three workers formatting one-row blocks, must write
// the bytes writeCSVRef writes, and what it writes must read back as an
// equal table. typed picks the schema: nil (every column String, names
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
		ref, refErr := readCSVRef(strings.NewReader(data), schema)
		var (
			tbl      *Table
			sizedErr string
		)
		for i, rd := range csvReaders(data) {
			var err error
			tbl, err = rd.read(schema)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: ReadCSV error %v, reference error %v", rd.name, err, refErr)
			}
			if i == 0 {
				sizedErr = fmt.Sprint(err)
			} else if got := fmt.Sprint(err); got != sizedErr {
				t.Fatalf("%s: ReadCSV error %q, sized reader's %q", rd.name, got, sizedErr)
			}
			if err == nil {
				sameTable(t, rd.name+" reader against the reference", ref, tbl)
				if sr, ok := rd.r.(*strings.Reader); ok && sr.Len() != 0 {
					t.Fatalf("%s: reader left %d bytes unread", rd.name, sr.Len())
				}
			}
		}
		if refErr != nil {
			return
		}

		var refBuf bytes.Buffer
		if err := tbl.writeCSVRef(&refBuf); err != nil {
			t.Fatalf("reference WriteCSV: %v", err)
		}
		for _, wr := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{"WriteCSV", tbl.WriteCSV},
			{"WriteCSV on three workers", func(w io.Writer) error { return tbl.writeCSV(w, 3, 1) }},
		} {
			var buf bytes.Buffer
			if err := wr.write(&buf); err != nil {
				t.Fatalf("%s: %v", wr.name, err)
			}
			if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
				t.Fatalf("%s wrote %q, reference wrote %q", wr.name, buf.String(), refBuf.String())
			}
		}
		back, err := ReadCSV(bytes.NewReader(refBuf.Bytes()), schema)
		if err != nil {
			t.Fatalf("written table does not read back: %v\nwritten: %q", err, refBuf.String())
		}
		sameTable(t, "read back", tbl, back)
	})
}

// namedReader is a reader of FuzzReadCSV's data; ranges, when not 0,
// forces a sized read into that many record ranges.
type namedReader struct {
	name   string
	r      io.Reader
	ranges int
}

func (rd namedReader) read(schema *Schema) (*Table, error) {
	if rd.ranges == 0 {
		return ReadCSV(rd.r, schema)
	}
	return readCSV(rd.r, schemaOr(schema), rd.ranges)
}

// csvReaders returns the readers FuzzReadCSV reads data through: a
// strings.Reader, the same reader with its length hidden,
// iotest.OneByteReader over it, and a strings.Reader read in three
// record ranges.
func csvReaders(data string) []namedReader {
	return []namedReader{
		{name: "sized", r: strings.NewReader(data)},
		{name: "unsized", r: struct{ io.Reader }{strings.NewReader(data)}},
		{name: "one byte", r: iotest.OneByteReader(strings.NewReader(data))},
		{name: "three ranges", r: strings.NewReader(data), ranges: 3},
	}
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

// FuzzRollup is the differential target of the statistics scan and of
// the group merge (regroup) that Rollup, Project and the shard merge
// share. Each input decodes into a table (rollupCase) and, under
// reflect.DeepEqual:
//   - GroupStats at 1 worker equals groupStatsRef, the row-at-a-time
//     reference, on that table;
//   - Rollup through BuildCodeMap maps onto the coarsened table equals
//     the reference on that table;
//   - Project onto the drawn key subset equals the reference keyed by
//     that subset;
//   - GroupStats at 4 workers (shard merge) equals 1 worker;
//   - Totals of the scan and of the roll-up equal a row-at-a-time count
//     (compared as printed, where a nil and an empty histogram agree).
//
// The column kinds reach every branch of the scan and the merge: packed
// keys through the dense key table or the map, unpacked keys (an Int
// key spanning more than 2^63), single-source targets, the dense
// histogram accumulator and its map-indexed form (an Int confidential
// attribute spanning more than 2^20, or near ±2^62), k-only statistics
// and the empty table. Seed corpus under testdata/fuzz, one seed per
// branch.
func FuzzRollup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRollupCase(t, data)
		base, err := c.tbl.GroupStats(c.qis, c.conf, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := c.tbl.groupStatsRef(c.qis, c.conf); err != nil {
			t.Fatal(err)
		} else if !reflect.DeepEqual(base, want) {
			t.Fatalf("GroupStats diverges from the reference\nscanned:   %+v\nreference: %+v", base, want)
		}
		totals := fmt.Sprint(totalsRef(t, c.tbl, c.conf))
		if got := fmt.Sprint(base.Totals()); got != totals {
			t.Fatalf("Totals diverge from a row-at-a-time count\nsummed:    %s\nreference: %s", got, totals)
		}
		maps := make([]*CodeMap, len(c.qis))
		for i, q := range c.qis {
			from, _ := c.tbl.Column(q)
			to, _ := c.coarse.Column(q)
			if maps[i], err = BuildCodeMap(from, to); err != nil {
				t.Fatal(err)
			}
		}
		rolled, err := base.Rollup(maps)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := c.coarse.groupStatsRef(c.qis, c.conf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rolled, direct) {
			t.Fatalf("Rollup diverges from the coarsened table's reference stats\nrolled: %+v\ndirect: %+v", rolled, direct)
		}
		if got := fmt.Sprint(rolled.Totals()); got != totals {
			t.Fatalf("a roll-up's Totals diverge from its source's\nrolled:    %s\nreference: %s", got, totals)
		}

		kept := make([]string, len(c.keep))
		for i, k := range c.keep {
			kept[i] = c.qis[k]
		}
		proj, err := base.Project(c.keep)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := c.tbl.groupStatsRef(kept, c.conf); err != nil {
			t.Fatal(err)
		} else if !reflect.DeepEqual(proj, want) {
			t.Fatalf("Project(%v) diverges from reference stats keyed by %v\nprojected: %+v\ndirect:    %+v", c.keep, kept, proj, want)
		}

		sharded, err := c.tbl.GroupStats(c.qis, c.conf, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sharded, base) {
			t.Fatalf("GroupStats at 4 workers diverges from 1 worker\nsharded: %+v\nserial:  %+v", sharded, base)
		}
	})
}

// rollupCase is what a FuzzRollup input decodes into: a table, its
// coarsening (each key column mapped to coarser labels or kept), the
// key and confidential columns, and a projection onto a key subset.
type rollupCase struct {
	tbl, coarse *Table
	qis, conf   []string
	keep        []int
}

// decodeRollupCase reads, in order: the row count (two bytes, mod
// 301); one byte giving 1-3 key and 0-3 confidential columns; per key
// column a kind byte (bit 0: Int instead of String; bits 1-2: the Int
// range), a cardinality and a coarsening fanout (0 keeps the column);
// per confidential column a kind byte (mod 3: String, Float, Int; then
// the Int range) and a cardinality; a projection byte (bit i keeps key
// column i, bit 7 reverses their order); and a seed. Then one byte per
// cell picks the cell's value; once the input runs out the seeded
// generator supplies the bytes.
func decodeRollupCase(t *testing.T, data []byte) rollupCase {
	t.Helper()
	var rng *rand.Rand
	next := func() int {
		if len(data) > 0 {
			b := data[0]
			data = data[1:]
			return int(b)
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(0))
		}
		return rng.Intn(256)
	}
	rows := (next()<<8 | next()) % 301
	shape := next()
	numQI, numConf := 1+shape%3, (shape/3)%4

	type colGen struct {
		name  string
		typ   Type
		span  int // Int range: 0 small, 1 steps of 2^21, 2 near ±2^62, 3 both ends of int64
		card  int
		value func(i int) Value
	}
	intValue := func(span, i int) int64 {
		switch span {
		case 1:
			return int64(i) << 21
		case 2:
			return -(1 << 62) + int64(i)<<59
		case 3:
			if i%2 == 0 {
				return math.MinInt64 + int64(i)
			}
			return math.MaxInt64 - int64(i)
		}
		return int64(i) - 3
	}
	var gens []colGen
	var fields []Field
	var c rollupCase
	fanouts := make([]int, numQI)
	for q := 0; q < numQI; q++ {
		kind := next()
		g := colGen{name: fmt.Sprintf("Q%d", q), typ: String, span: (kind >> 1) % 4, card: 1 + next()%12}
		if kind&1 == 1 {
			g.typ = Int
		}
		fanouts[q] = next() % 4
		gens = append(gens, g)
		c.qis = append(c.qis, g.name)
	}
	for a := 0; a < numConf; a++ {
		kind := next()
		g := colGen{name: fmt.Sprintf("S%d", a), typ: []Type{String, Float, Int}[kind%3], span: (kind / 3) % 4, card: 1 + next()%16}
		gens = append(gens, g)
		c.conf = append(c.conf, g.name)
	}
	for i := range gens {
		g := &gens[i]
		switch g.typ {
		case String:
			g.value = func(i int) Value { return SV(fmt.Sprintf("v%d", i)) }
		case Float:
			g.value = func(i int) Value { return FV(float64(i) / 4) }
		default:
			span := g.span
			g.value = func(i int) Value { return IV(intValue(span, i)) }
		}
		fields = append(fields, Field{Name: g.name, Type: g.typ})
	}
	proj := next()
	for q := 0; q < numQI; q++ {
		if proj&(1<<q) != 0 {
			c.keep = append(c.keep, q)
		}
	}
	if len(c.keep) == 0 {
		c.keep = []int{0}
	}
	if proj&0x80 != 0 {
		slices.Reverse(c.keep)
	}
	rng = rand.New(rand.NewSource(int64(next())))

	b, err := NewBuilder(MustSchema(fields...))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]Value, len(gens))
	for r := 0; r < rows; r++ {
		for i, g := range gens {
			row[i] = g.value(next() % g.card)
		}
		b.Append(row...)
	}
	if c.tbl, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	// A coarsening is any function of the value: one level of a
	// full-domain recoding. Strings bucket their index by fanout+1, Int
	// values by their remainder.
	c.coarse = c.tbl
	for q, fan := range fanouts {
		if fan == 0 {
			continue
		}
		div := fan + 1
		c.coarse, err = c.coarse.MapColumn(c.qis[q], func(v Value) (string, error) {
			if v.Kind() == Int {
				return fmt.Sprintf("r%d", v.Int()%int64(div)), nil
			}
			var k int
			fmt.Sscanf(v.Str()[1:], "%d", &k)
			return fmt.Sprintf("b%d", k/div), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// FuzzGather is the differential target of Table.Gather. Each input
// decodes into a table (decodeGatherCase) of String columns whose
// dictionaries reach a drawn packed width from 1 to 16, or one above
// 2^16 (raw codes), packed or still being appended, beside an Int column
// that reaches both ends of int64 and a Float column holding NaN, -0 and
// infinities; and into a row list mixing ascending runs, lone rows,
// descending runs, repeated and out-of-range indices, or nothing. Gather
// must agree with gatherRef, which gathers string codes one row at a
// time and packs them afterwards: the same error, or tables with equal
// Value and Code on every row, bit-identical packed words, and every
// row's value the source row's. Seed corpus under testdata/fuzz, one
// seed per branch.
func FuzzGather(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, rows := decodeGatherCase(t, data)
		got, err := tbl.Gather(rows)
		want, wantErr := tbl.gatherRef(rows)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Gather error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrRowRange) {
				t.Fatalf("Gather error %v, want ErrRowRange", err)
			}
			return
		}
		sameTable(t, "reference", want, got)
		for c := 0; c < tbl.NumCols(); c++ {
			src := tbl.ColumnAt(c)
			for i, r := range rows {
				if a, b := src.Value(r).Str(), got.ColumnAt(c).Value(i).Str(); a != b {
					t.Fatalf("column %d row %d (source row %d): %q, want %q", c, i, r, b, a)
				}
			}
			switch g := got.ColumnAt(c).(type) {
			case *stringColumn:
				w := want.ColumnAt(c).(*stringColumn)
				if !g.frozen || g.codes != nil || !reflect.DeepEqual(g.packed, w.packed) {
					t.Fatalf("column %d: frozen %v, packed %+v, want %+v", c, g.frozen, g.packed, w.packed)
				}
			case *intColumn:
				if w := want.ColumnAt(c).(*intColumn); !slices.Equal(g.vals, w.vals) {
					t.Fatalf("column %d: values %v, want %v", c, g.vals, w.vals)
				}
			}
		}
	})
}

// gatherDicts caches one dictionary per packed width (index 17: above
// 2^16 values), shared by the fuzz inputs' String columns.
var gatherDicts struct {
	sync.Mutex
	byWidth [18]*stringColumn
}

// gatherDict returns a column whose dictionary is the smallest that
// packs its codes at width bits (width 17: raw codes).
func gatherDict(width int) *stringColumn {
	gatherDicts.Lock()
	defer gatherDicts.Unlock()
	if d := gatherDicts.byWidth[width]; d != nil {
		return d
	}
	card := 2
	if width > 1 {
		card = 1<<(width-1) + 1
	}
	d := newStringColumn()
	for i := 0; i < card; i++ {
		d.intern(fmt.Sprintf("v%d", i))
	}
	gatherDicts.byWidth[width] = d
	return d
}

// decodeGatherCase reads, in order: the row count (two bytes, mod 700);
// the number of String columns (mod 4); per String column a byte whose
// remainder mod 17 plus one is the packed width and whose top bit
// leaves the column unfrozen; a value seed. The rest are row-list ops,
// op byte mod 5: 0 an ascending run (two bytes of start, one of length
// minus one), 1 a lone row (two bytes), 2 a descending run (as 0), 3 a
// repeat of the last row (one byte: count minus one, mod 4), 4 an
// out-of-range row (one byte: bit 0 below 0, else at or past the row
// count; the rest is the distance). Missing bytes read as zero.
func decodeGatherCase(t *testing.T, data []byte) (*Table, []int) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := (next() | next()<<8) % 700
	var fields []Field
	var cols []Column
	for s := next() % 4; s > 0; s-- {
		spec := next()
		d := gatherDict(spec%17 + 1)
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32((i*7919 + spec*104729) % len(d.dict))
		}
		c := &stringColumn{dict: d.dict, index: d.index, codes: codes}
		if spec&0x80 == 0 {
			c.freeze()
		}
		fields = append(fields, Field{Name: fmt.Sprintf("S%d", len(fields)), Type: String})
		cols = append(cols, c)
	}
	seed := int64(next())
	ints, floats := &intColumn{vals: make([]int64, n)}, newFloatColumn()
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			ints.vals[i] = int64(i) * seed
		case 1:
			ints.vals[i] = math.MaxInt64 - int64(i)
		case 2:
			ints.vals[i] = math.MinInt64 + int64(i)
		default:
			ints.vals[i] = -int64(i)
		}
		floats.append([]float64{math.NaN(), math.Copysign(0, -1), float64(i) / 3, float64(seed), math.Inf(1)}[i%5])
	}
	fields = append(fields, Field{Name: "I", Type: Int}, Field{Name: "F", Type: Float})
	cols = append(cols, ints, floats)
	tbl := &Table{schema: MustSchema(fields...), cols: cols, nrows: n}

	var rows []int
	for len(data) > 0 {
		switch op := next() % 5; op {
		case 0, 2:
			start, length := (next()|next()<<8)%max(n, 1), next()+1
			for j := 0; j < length && n > 0; j++ {
				r := start + j
				if op == 2 {
					r = start - j
				}
				if r < 0 || r >= n {
					break
				}
				rows = append(rows, r)
			}
		case 1:
			if n > 0 {
				rows = append(rows, (next()|next()<<8)%n)
			}
		case 3:
			if len(rows) > 0 {
				for j := next() % 4; j >= 0; j-- {
					rows = append(rows, rows[len(rows)-1])
				}
			}
		case 4:
			b := next()
			if b&1 == 1 {
				rows = append(rows, -1-b>>1)
			} else {
				rows = append(rows, n+b>>1)
			}
		}
	}
	return tbl, rows
}
