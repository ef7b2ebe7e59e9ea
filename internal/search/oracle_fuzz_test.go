package search

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"psk/internal/core"
	"psk/internal/hierarchy"
	"psk/internal/table"
)

// FuzzStrategiesMatchOracle pins every strategy's release to the
// row-scan oracle on generated inputs: a table of String and Int
// quasi-identifiers under every hierarchy kind (Flat, Prefix,
// PrefixSteps, Interval, Tree) and one to three confidential attributes,
// one of them Float, searched for the built-in verdict or a
// core.Composite policy. checkStrategiesAgainstOracle compares all five
// strategies, at workers 1 and 4, with the oracle's replay, released
// bytes included; the bounds read off the base statistics
// (core.BoundsFromStats) must equal the ones computed on the rows
// (core.ComputeBounds); an incremental session's first Republish must
// equal Run with its fallback strategy (checkFirstRepublish); and
// Theorems 1-2 must hold at every satisfying node (checkTheorems).
// Seed corpus under testdata/fuzz, covering every hierarchy kind.
func FuzzStrategiesMatchOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		im, cfg := decodeOracleCase(t, data)
		base, err := im.GroupStats(cfg.QIs, cfg.Confidential, 1)
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 3; p++ {
			want, err := core.ComputeBounds(im, cfg.Confidential, p)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := core.BoundsFromStats(base, p); err != nil || got != want {
				t.Fatalf("p=%d: bounds from statistics %+v (err %v), from rows %+v", p, got, err, want)
			}
		}
		for _, w := range []int{1, 4} {
			cfg.Workers = w
			checkFirstRepublish(t, fmt.Sprintf("w=%d", w), im, cfg)
		}
		cfg.Workers = 0
		if !rowScanBounds(t, im, cfg).Feasible() {
			// Condition 1 fails on the rows: every strategy must stop
			// before evaluating a node.
			for s := range numStrategies {
				res, err := Run(im, cfg, s)
				if err != nil || res.Found || res.Stats != (Stats{PrunedCondition1: 1}) {
					t.Fatalf("%s on an infeasible p: found %v, stats %+v, err %v", s, res.Found, res.Stats, err)
				}
			}
			return
		}
		o := newRowScanOracle(t, im, cfg)
		checkTheorems(t, im, cfg, o)
		for _, w := range []int{1, 4} {
			cfg.Workers = w
			checkStrategiesAgainstOracle(t, fmt.Sprintf("w=%d", w), im, cfg, o)
		}
	})
}

// checkFirstRepublish pins incremental to batch: for every fallback
// strategy, a session's first Republish over im is Run of that strategy
// on im, with the same answer, minimal nodes and released bytes.
func checkFirstRepublish(t *testing.T, name string, im *table.Table, cfg Config) {
	t.Helper()
	for s := range numStrategies {
		want, err := Run(im, cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := OpenIncremental(im, cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Republish()
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != want.Found || !reflect.DeepEqual(got.Node, want.Node) || got.Suppressed != want.Suppressed ||
			fmtMinimal(got.Minimal) != fmtMinimal(want.Minimal) || fmtMasked(got.Masked) != fmtMasked(want.Masked) {
			t.Fatalf("%s: %s session's first republish differs from Run:\n%s\nwant\n%s", name, s, fmtResult(got), fmtResult(want))
		}
	}
}

// checkTheorems asserts Theorems 1 and 2 as properties: at every node
// the row-scan oracle found satisfying, the bounds computed on the
// released rows are no greater than on the input rows, for p = 1..3.
func checkTheorems(t *testing.T, im *table.Table, cfg Config, o rowScanOracle) {
	t.Helper()
	for p := 1; p <= 3; p++ {
		in, err := core.ComputeBounds(im, cfg.Confidential, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range o.lat.AllNodes() {
			out := o.out[node.Key()]
			if !out.ok {
				continue
			}
			got, err := core.ComputeBounds(out.masked, cfg.Confidential, p)
			if err != nil {
				t.Fatal(err)
			}
			if got.MaxP > in.MaxP || got.MaxGroups > in.MaxGroups {
				t.Fatalf("p=%d node %v: released bounds %+v exceed the input's %+v", p, node, got, in)
			}
		}
	}
}

// decodeOracleCase reads, in order: the row count (two bytes, 1 + mod
// 300); a shape byte giving 1-3 quasi-identifiers and 1-3 confidential
// attributes; per quasi-identifier a kind byte (mod 5: Flat, Prefix,
// PrefixSteps, Interval, Tree; then bit 0 of kind/5 makes a Flat or
// prefix column Int), a hierarchy byte (prefix width and steps,
// interval levels, tree height) and a cardinality; per confidential
// attribute a kind byte (the first is Float, the others String or Int)
// and a cardinality; k, p and the suppression budget; a flags byte
// (bit 0 the conditions switch, bit 1 a composite policy, whose l, t
// and alpha the higher bits pick). Then one byte per cell picks the
// cell's value; once the input runs out a seeded generator supplies the
// bytes.
func decodeOracleCase(t *testing.T, data []byte) (*table.Table, Config) {
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
	rows := 1 + (next()<<8|next())%300
	shape := next()
	numQI, numConf := 1+shape%3, 1+(shape/3)%3

	var fields []table.Field
	var hs []hierarchy.Hierarchy
	var values []func(i int) string
	var cards []int
	var cfg Config
	for q := 0; q < numQI; q++ {
		name := fmt.Sprintf("Q%d", q)
		kind, param, card := next(), next(), 1+next()%12
		h, typ, value := oracleQI(t, name, kind, param)
		fields = append(fields, table.Field{Name: name, Type: typ})
		hs = append(hs, h)
		values, cards = append(values, value), append(cards, card)
		cfg.QIs = append(cfg.QIs, name)
	}
	for a := 0; a < numConf; a++ {
		name := fmt.Sprintf("S%d", a)
		kind, card := next(), 1+next()%8
		typ, value := table.Float, func(i int) string { return fmt.Sprint(float64(i)/4 - 0.5) }
		switch {
		case a == 0:
		case kind%2 == 0:
			typ, value = table.String, func(i int) string { return fmt.Sprintf("c%d", i) }
		default:
			typ, value = table.Int, func(i int) string { return fmt.Sprint(1000 * i) }
		}
		fields = append(fields, table.Field{Name: name, Type: typ})
		values, cards = append(values, value), append(cards, card)
		cfg.Confidential = append(cfg.Confidential, name)
	}
	cfg.Hierarchies = hierarchy.MustSet(hs...)
	cfg.K = 2 + next()%4
	cfg.P = 1 + next()%min(cfg.K, 3)
	cfg.MaxSuppress = next() % 32
	flags := next()
	cfg.UseConditions = flags&1 == 1
	if flags&2 != 0 {
		closeness := 0.2 + 0.1*float64((flags>>4)%4)
		policy, err := core.Composite(cfg.Confidential, cfg.P, cfg.K, (flags>>2)%3, &closeness, 0.5+0.1*float64(flags>>6))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = policy
	}

	text := make([][]string, rows)
	for r := range text {
		text[r] = make([]string, len(values))
		for c, value := range values {
			text[r][c] = value(next() % cards[c])
		}
	}
	im, err := table.FromText(table.MustSchema(fields...), text)
	if err != nil {
		t.Fatal(err)
	}
	return im, cfg
}

// oracleQI builds quasi-identifier name's hierarchy, column type and
// value of index i from its kind and hierarchy bytes. Every value
// generalizes at every level: the prefix kinds get fixed-width digit
// strings, the interval integers in [0, 100), the tree its own ground
// values.
func oracleQI(t *testing.T, name string, kind, param int) (hierarchy.Hierarchy, table.Type, func(i int) string) {
	t.Helper()
	typ := table.String
	if (kind/5)%2 == 1 {
		typ = table.Int
	}
	width := 2 + param%2
	digits := func(i int) string {
		lo := 10
		if width == 3 {
			lo = 100
		}
		return fmt.Sprint(lo + i*37%(9*lo))
	}
	var h hierarchy.Hierarchy
	var err error
	switch kind % 5 {
	case 0:
		return hierarchy.NewFlat(name), typ, func(i int) string { return fmt.Sprint(7*i - 3) }
	case 1:
		h, err = hierarchy.NewPrefix(name, width, 1+(param/2)%width)
	case 2:
		var steps []int
		for s := 1; s <= width; s++ {
			if (param>>s)&1 == 1 {
				steps = append(steps, s)
			}
		}
		if len(steps) == 0 {
			steps = []int{width}
		}
		h, err = hierarchy.NewPrefixSteps(name, width, steps)
	case 3:
		levels := []hierarchy.IntervalLevel{
			hierarchy.DecadeLevel("tens", 0, 99, 10),
			{Cuts: []int64{50}, Labels: []string{"<50", ">=50"}},
			{Labels: []string{hierarchy.Suppressed}},
		}
		h, err = hierarchy.NewInterval(name, levels[param%3:])
		typ, digits = table.Int, func(i int) string { return fmt.Sprint(i * 13 % 100) }
	default:
		chains := make(map[string][]string)
		for v := 0; v < 12; v++ {
			chains[fmt.Sprintf("t%d", v)] = []string{fmt.Sprintf("g%d", v%3), hierarchy.Suppressed}[1-param%2:]
		}
		h, err = hierarchy.NewTree(name, chains)
		typ, digits = table.String, func(i int) string { return fmt.Sprintf("t%d", i) }
	}
	if err != nil {
		t.Fatal(err)
	}
	return h, typ, digits
}

// TestOracleCaseReachesEveryHierarchy guards the committed seed corpus
// of FuzzStrategiesMatchOracle: between them, the seeds' decoded inputs
// use every hierarchy kind and both column types of the prefix kinds.
func TestOracleCaseReachesEveryHierarchy(t *testing.T) {
	seeds := readFuzzSeeds(t, "FuzzStrategiesMatchOracle")
	seen := make(map[string]bool)
	for _, data := range seeds {
		im, cfg := decodeOracleCase(t, data)
		for _, q := range cfg.QIs {
			h, err := cfg.Hierarchies.Get(q)
			if err != nil {
				t.Fatal(err)
			}
			col, err := im.Column(q)
			if err != nil {
				t.Fatal(err)
			}
			seen[fmt.Sprintf("%s/%s", reflect.TypeOf(h).Elem().Name(), col.Type())] = true
		}
		if cfg.Policy != nil {
			seen["composite"] = true
		}
	}
	for _, want := range []string{
		"Flat/string", "Flat/int", "Prefix/string", "Prefix/int", "PrefixSteps/string",
		"PrefixSteps/int", "Interval/int", "Tree/string", "composite",
	} {
		if !seen[want] {
			t.Errorf("no seed decodes to %s (seen %v)", want, seen)
		}
	}
}

// readFuzzSeeds decodes the []byte inputs of target's committed seed
// corpus under testdata/fuzz.
func readFuzzSeeds(t *testing.T, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus for %s: %v", target, err)
	}
	var seeds [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok || len(lines) != 2 {
			t.Fatalf("%s: not a one-value []byte corpus file", name)
		}
		v, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, []byte(v))
	}
	return seeds
}
