package table

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// buildStringColumn makes an unfrozen column over the given row codes,
// with value v<i> for code i — the construction-time storage state.
func buildStringColumn(t testing.TB, codes []int, card int) *stringColumn {
	t.Helper()
	c := newStringColumn()
	// Intern the full dictionary first so codes are stable and the
	// packed width is determined by card, not by which codes appear.
	for i := 0; i < card; i++ {
		c.intern(fmt.Sprintf("v%d", i))
	}
	for _, code := range codes {
		if code >= card {
			t.Fatalf("code %d outside cardinality %d", code, card)
		}
		c.codes = append(c.codes, int32(code))
	}
	return c
}

// TestPackedUnpackedColumnsAgree is the packed-code property test: for
// cardinalities straddling every width boundary — 2 (1-bit), 256
// (8-bit), 2^16 (the widest packed form) and beyond (the unpacked
// []uint32 fast path, 32-bit) — a frozen column must agree with its
// unfrozen twin on Len, Value, Code, CodeRange, Codes and GroupBy.
func TestPackedUnpackedColumnsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cards := []int{1, 2, 3, 255, 256, 257, 1 << 15, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1 << 17}
	for _, card := range cards {
		n := 500 + rng.Intn(500)
		codes := make([]int, n)
		for i := range codes {
			codes[i] = rng.Intn(card)
		}
		unfrozen := buildStringColumn(t, codes, card)
		frozen := buildStringColumn(t, codes, card)
		frozen.freeze()
		if frozen.Len() != unfrozen.Len() {
			t.Fatalf("card %d: Len %d != %d", card, frozen.Len(), unfrozen.Len())
		}
		for i := 0; i < n; i++ {
			if frozen.Code(i) != unfrozen.Code(i) {
				t.Fatalf("card %d: Code(%d) %d != %d", card, i, frozen.Code(i), unfrozen.Code(i))
			}
			if !frozen.Value(i).Equal(unfrozen.Value(i)) {
				t.Fatalf("card %d: Value(%d) differs", card, i)
			}
		}
		flo, fhi, fok := frozen.CodeRange()
		ulo, uhi, uok := unfrozen.CodeRange()
		if flo != ulo || fhi != uhi || fok != uok {
			t.Fatalf("card %d: CodeRange (%d,%d,%v) != (%d,%d,%v)", card, flo, fhi, fok, ulo, uhi, uok)
		}
		// Bulk extraction over random sub-ranges, including word-straddling
		// offsets, must match the per-row reads.
		for trial := 0; trial < 20; trial++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			got := frozen.Codes(nil, lo, hi)
			if len(got) != hi-lo {
				t.Fatalf("card %d: Codes [%d,%d) returned %d codes", card, lo, hi, len(got))
			}
			for j, code := range got {
				if int(code) != codes[lo+j] {
					t.Fatalf("card %d: Codes [%d,%d)[%d] = %d, want %d", card, lo, hi, j, code, codes[lo+j])
				}
			}
		}
		// A frozen column appended to un-freezes and re-freezes exactly.
		refrozen := buildStringColumn(t, codes, card)
		refrozen.freeze()
		refrozen.append(fmt.Sprintf("v%d", codes[0]))
		refrozen.freeze()
		if refrozen.Len() != n+1 || refrozen.Code(n) != codes[0] {
			t.Fatalf("card %d: unfreeze/refreeze round-trip broke", card)
		}
	}
}

// TestPackedGroupByAgree runs GroupBy over tables whose only difference
// is the columns' storage state (packed vs plain codes); groups and
// order must be identical.
func TestPackedGroupByAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	schema := MustSchema(Field{Name: "A", Type: String}, Field{Name: "B", Type: String})
	for _, card := range []int{2, 17, 256} {
		n := 2000
		acodes := make([]int, n)
		bcodes := make([]int, n)
		for i := range acodes {
			acodes[i] = rng.Intn(card)
			bcodes[i] = rng.Intn(3)
		}
		frozenA, frozenB := buildStringColumn(t, acodes, card), buildStringColumn(t, bcodes, 3)
		frozenA.freeze()
		frozenB.freeze()
		plainA, plainB := buildStringColumn(t, acodes, card), buildStringColumn(t, bcodes, 3)
		packed := &Table{schema: schema, cols: []Column{frozenA, frozenB}, nrows: n}
		plain := &Table{schema: schema, cols: []Column{plainA, plainB}, nrows: n}
		gp, err := packed.GroupBy("A", "B")
		if err != nil {
			t.Fatal(err)
		}
		gu, err := plain.GroupBy("A", "B")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gp, gu) {
			t.Fatalf("card %d: packed and plain GroupBy disagree", card)
		}
	}
}

// TestFloatCodesDistinct is the regression test for the float-code
// truncation hazard: the former int64(v*1e6) scheme collided distinct
// small magnitudes (1e-7 and 2e-7 both truncated to 0) and overflowed
// large ones. Dictionary codes must keep every distinct value distinct.
func TestFloatCodesDistinct(t *testing.T) {
	vals := []float64{
		0, 1e-7, 2e-7, -1e-7, // all collided to 0 under *1e6
		1e13, 1e13 + 1, // overflowed int64 under *1e6
		-1e13, math.MaxFloat64, -math.MaxFloat64,
		1.5, 1.5000001,
	}
	c := newFloatColumn()
	for _, v := range vals {
		if err := c.AppendValue(FV(v)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int]float64{}
	for i, v := range vals {
		code := c.Code(i)
		if prev, ok := seen[code]; ok && prev != v {
			t.Errorf("values %g and %g share code %d", prev, v, code)
		}
		seen[code] = v
	}
	// Equal values share a code; NaN rows form one class despite
	// NaN != NaN.
	c2 := newFloatColumn()
	for _, v := range []float64{2.5, math.NaN(), 2.5, math.NaN()} {
		if err := c2.AppendValue(FV(v)); err != nil {
			t.Fatal(err)
		}
	}
	if c2.Code(0) != c2.Code(2) {
		t.Error("equal values got distinct codes")
	}
	if c2.Code(1) != c2.Code(3) {
		t.Error("NaN rows got distinct codes")
	}
	if c2.Code(0) == c2.Code(1) {
		t.Error("2.5 and NaN share a code")
	}
	// Codes are dense, so float columns join the packed group-by path.
	lo, hi, ok := c.CodeRange()
	if !ok || lo != 0 || hi != len(vals)-1 {
		t.Errorf("CodeRange = (%d, %d, %v), want dense [0, %d]", lo, hi, ok, len(vals)-1)
	}
}

// TestStringGatherSharesDict pins the Gather fix: a gather borrows the
// source dictionary instead of re-interning it, so its cost does not
// scale with dictionary size, and the first novel append copies the
// borrowed dictionary rather than mutating it.
func TestStringGatherSharesDict(t *testing.T) {
	const card = 10000
	codes := make([]int, card)
	for i := range codes {
		codes[i] = i
	}
	src := buildStringColumn(t, codes, card)
	src.freeze()
	rows := []int{1, 3, 5, 7}
	out := src.Gather(rows).(*stringColumn)
	if &out.dict[0] != &src.dict[0] {
		t.Fatal("gathered column copied the dictionary")
	}
	for j, r := range rows {
		if !out.Value(j).Equal(src.Value(r)) {
			t.Fatalf("gathered row %d differs", j)
		}
	}
	// The gather allocates O(rows), never O(dict): a handful of slice
	// headers and the packed code words, regardless of the 10k-entry
	// dictionary.
	allocs := testing.AllocsPerRun(10, func() {
		src.Gather(rows)
	})
	if allocs > 8 {
		t.Errorf("Gather allocated %.0f objects for %d rows; the dictionary is being copied", allocs, len(rows))
	}
	// Copy-on-write: appending a novel value must not grow the shared
	// dictionary under the source.
	before := len(src.dict)
	out.append("novel-value")
	if len(src.dict) != before {
		t.Fatal("append to gathered column mutated the source dictionary")
	}
	if out.Value(out.Len()-1).Str() != "novel-value" {
		t.Fatal("append to gathered column lost the value")
	}
}

// TestGatherLenderCopyOnWrite pins the other direction of the shared-
// dictionary contract: after a Gather the LENDER's dictionary is shared
// too, so a novel append to the source must copy-on-write rather than
// grow the dictionary in place underneath the borrower. Pre-fix, the
// borrower then found the lender's new value in the shared index with a
// code beyond its own dictionary and panicked in Value.
func TestGatherLenderCopyOnWrite(t *testing.T) {
	src := buildStringColumn(t, []int{0, 1, 2, 3}, 4)
	src.freeze()
	out := src.Gather([]int{1, 3}).(*stringColumn)
	dictBefore := len(out.dict)
	src.append("lender-novel")
	if len(out.dict) != dictBefore {
		t.Fatal("append to lender grew the borrower's dictionary")
	}
	if got := src.Value(src.Len() - 1).Str(); got != "lender-novel" {
		t.Fatalf("lender append stored %q", got)
	}
	out.append("lender-novel")
	if got := out.Value(out.Len() - 1).Str(); got != "lender-novel" {
		t.Fatalf("borrower append stored %q", got)
	}
	if out.Value(0).Str() != "v1" || out.Value(1).Str() != "v3" {
		t.Fatal("borrower's original rows changed")
	}
}

// TestGatherMemBytesCountsDictOnce: a borrowed dictionary is attributed
// to the column it was gathered from, so cache telemetry doesn't count
// the same dictionary once per borrower.
func TestGatherMemBytesCountsDictOnce(t *testing.T) {
	src := buildStringColumn(t, []int{0, 1, 2}, 3)
	src.freeze()
	lenderBytes := src.memBytes()
	out := src.Gather([]int{0, 2}).(*stringColumn)
	if got := out.memBytes(); got != out.packed.memBytes() {
		t.Errorf("borrower memBytes = %d, want packed codes only (%d)", got, out.packed.memBytes())
	}
	if got := src.memBytes(); got != lenderBytes {
		t.Errorf("lender memBytes changed across Gather: %d != %d", got, lenderBytes)
	}
	// Once the borrower copies-on-write it owns its dictionary and
	// counts it again (append unfreezes, so the code bytes are the
	// plain int32 slice).
	out.append("novel")
	if got := out.memBytes(); got <= int64(len(out.codes))*4 {
		t.Errorf("post-COW borrower memBytes = %d, dict no longer counted", got)
	}
}

// randomScanMicrodata builds an n-row table spanning every column type
// the chunked kernel specializes: string/int QIs (the int with negative
// values) and string/int/float confidential attributes.
func randomScanMicrodata(t testing.TB, rng *rand.Rand, n int, wide bool) *Table {
	t.Helper()
	schema := MustSchema(
		Field{Name: "A", Type: String},
		Field{Name: "B", Type: Int},
		Field{Name: "C", Type: String},
		Field{Name: "S1", Type: String},
		Field{Name: "S2", Type: Int},
		Field{Name: "S3", Type: Float},
	)
	b, err := NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	bspan := 9
	if wide {
		// Blow the packed key space past maxDenseKeySpan so the scan
		// exercises the map-indexed chunked path.
		bspan = 1 << 21
	}
	for i := 0; i < n; i++ {
		b.Append(
			SV(fmt.Sprintf("a%d", rng.Intn(7))),
			IV(int64(rng.Intn(bspan)-4)),
			SV(fmt.Sprintf("c%d", rng.Intn(5))),
			SV(fmt.Sprintf("s%d", rng.Intn(6))),
			IV(int64(rng.Intn(9)-3)),
			FV(float64(rng.Intn(4))/4),
		)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestChunkedGroupStatsMatchesRowwise is the differential test of the
// chunked kernel: on random tables spanning every specialized column
// type, dense and map-indexed key paths, and every worker count, the
// chunked scan must be deep-equal to the rowwise reference — run under
// -race by `make race`, which also makes it the serial-vs-parallel
// equivalence witness.
func TestChunkedGroupStatsMatchesRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	qiSets := [][]string{{"A"}, {"A", "B"}, {"A", "B", "C"}}
	confSets := [][]string{nil, {"S1"}, {"S1", "S2", "S3"}, {"S3"}}
	for _, wide := range []bool{false, true} {
		for trial := 0; trial < 3; trial++ {
			n := 1 + rng.Intn(5000)
			tbl := randomScanMicrodata(t, rng, n, wide)
			for _, qis := range qiSets {
				for _, conf := range confSets {
					want, err := tbl.GroupStatsRowwise(qis, conf, 1)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 3, 8} {
						got, err := tbl.GroupStats(qis, conf, workers)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("wide=%v n=%d qis=%v conf=%v workers=%d: chunked and rowwise stats disagree",
								wide, n, qis, conf, workers)
						}
					}
				}
			}
		}
	}
}

// TestRemappedColumnMatchesMapped: the code-remapping fast path must
// produce the same values row-for-row as the string-materializing
// MappedColumn for every dictionary-bearing column type, and surface
// mapping errors only for values rows actually hold (a shared Gather
// dictionary may carry absent entries).
func TestRemappedColumnMatchesMapped(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tbl := randomScanMicrodata(t, rng, 800, false)
	for _, attr := range []string{"A", "B", "S3"} {
		fn := func(v Value) (string, error) { return "g:" + v.Str(), nil }
		mapped, err := tbl.MappedColumn(attr, fn)
		if err != nil {
			t.Fatal(err)
		}
		remapped, err := tbl.RemappedColumn(attr, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tbl.NumRows(); i++ {
			if !mapped.Value(i).Equal(remapped.Value(i)) {
				t.Fatalf("%s: row %d: %v != %v", attr, i, mapped.Value(i), remapped.Value(i))
			}
		}
	}
	// Errors: a value present in rows must fail either way; a value
	// only present in a borrowed dictionary must not fail the remap.
	failOn := func(bad string) func(Value) (string, error) {
		return func(v Value) (string, error) {
			if v.Str() == bad {
				return "", fmt.Errorf("no mapping")
			}
			return "g:" + v.Str(), nil
		}
	}
	present, err := tbl.Column("A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.RemappedColumn("A", failOn(present.Value(0).Str())); err == nil {
		t.Fatal("mapping error on a present value was swallowed")
	}
	sub := tbl.Filter(func(r int) bool { return present.Value(r).Str() == "a0" })
	if sub.NumRows() == 0 {
		t.Fatal("empty filter")
	}
	// sub's A column borrows the full dictionary; a1 is absent from its
	// rows, so a mapping that rejects a1 must still succeed.
	col, err := sub.RemappedColumn("A", failOn("a1"))
	if err != nil {
		t.Fatalf("mapping error on an absent dictionary value: %v", err)
	}
	for i := 0; i < sub.NumRows(); i++ {
		if col.Value(i).Str() != "g:a0" {
			t.Fatalf("row %d mapped to %q", i, col.Value(i).Str())
		}
	}
}
