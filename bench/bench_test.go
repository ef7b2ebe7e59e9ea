package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"testing"

	"psk/internal/dataset"
	"psk/internal/generalize"
	"psk/internal/hierarchy"
)

// TestMain lets the test binary serve as its own child processes, the
// way the benchmark binary does.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestJobSpecIsTable7 pins the committed job to the paper's Table 7
// hierarchies as dataset.Hierarchies builds them: the same 96-node,
// height-9 lattice, and every domain value generalized identically at
// every level, so the release workload runs on the paper's lattice.
func TestJobSpecIsTable7(t *testing.T) {
	job, err := adultJob(20 * dataset.AdultRows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job.QuasiIdentifiers, dataset.QIs()) || !reflect.DeepEqual(job.Confidential, dataset.Confidential()) {
		t.Fatalf("job attributes %v / %v, want %v / %v", job.QuasiIdentifiers, job.Confidential, dataset.QIs(), dataset.Confidential())
	}
	if job.K != 10 || job.P != 2 || job.MaxSuppress != 20*dataset.AdultRows/100 {
		t.Fatalf("job k=%d p=%d maxSuppress=%d, want 10, 2, rows/100", job.K, job.P, job.MaxSuppress)
	}
	schema, err := job.Schema(dataset.Schema().Names())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(schema, dataset.Schema()) {
		t.Fatalf("job schema %v, want the generator's %v", schema, dataset.Schema())
	}
	got, err := job.BuildHierarchies()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	for _, hs := range []*hierarchy.Set{got, want} {
		m, err := generalize.NewMasker(dataset.QIs(), hs)
		if err != nil {
			t.Fatal(err)
		}
		if lat := m.Lattice(); lat.Size() != 96 || lat.Height() != 9 {
			t.Fatalf("lattice of %d nodes, height %d; want 96, 9", lat.Size(), lat.Height())
		}
	}
	var ages []string
	for a := 17; a <= 90; a++ {
		ages = append(ages, strconv.Itoa(a))
	}
	domains := map[string][]string{dataset.Age: ages, dataset.Sex: {"Male", "Female"}}
	for _, attr := range []string{dataset.MaritalStatus, dataset.Race} {
		h, err := want.Get(attr)
		if err != nil {
			t.Fatal(err)
		}
		domains[attr] = h.(*hierarchy.Tree).GroundValues()
	}
	for attr, values := range domains {
		g, err := got.Get(attr)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Get(attr)
		if err != nil {
			t.Fatal(err)
		}
		if g.Height() != w.Height() {
			t.Fatalf("%s: height %d, want %d", attr, g.Height(), w.Height())
		}
		for _, v := range values {
			for level := 0; level <= w.Height(); level++ {
				gv, gerr := g.Generalize(v, level)
				wv, werr := w.Generalize(v, level)
				if gv != wv || (gerr == nil) != (werr == nil) {
					t.Fatalf("%s %q level %d: job gives %q (%v), Table 7 %q (%v)", attr, v, level, gv, gerr, wv, werr)
				}
			}
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// holds each run to the benchmark's contract: every metric BENCHMARK.json
// names is emitted with its unit, nothing fails, and spans nest.
func TestSmoke(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var manNames []string
	for _, w := range man.Workloads {
		manNames = append(manNames, w.Name)
	}
	if !reflect.DeepEqual(names, manNames) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, manNames)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range man.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range man.PerLayer {
		want[true][m.Name] = m.Unit
	}

	opt := defaultOptions()
	opt.work = t.TempDir()
	opt.seed = 7
	opt.rows = 5000
	opt.seconds = 0.5
	opt.setups = 2
	opt.epoch = 20
	opt.svcRows = 500
	opt.rates = []float64{20}
	opt.rung = 2
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			o := opt
			o.trace = trace
			t.Run(w.name+map[bool]string{false: "", true: "/traced"}[trace], func(t *testing.T) {
				rec, err := runWorkload(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("%d of %d failed: %v", rec.Failed, rec.Attempted, rec.Problems)
				}
				if len(rec.Metrics) != len(want[trace]) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(rec.Metrics), len(want[trace]))
				}
				for name, unit := range want[trace] {
					if v, ok := rec.Metrics[name]; !ok || v.Unit != unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", name, v, ok, unit)
					}
				}
				if !trace {
					return
				}
				raw, err := os.ReadFile(rec.SpansFile)
				if err != nil {
					t.Fatal(err)
				}
				var spans []span
				if err := json.Unmarshal(raw, &spans); err != nil {
					t.Fatal(err)
				}
				if len(spans) == 0 {
					t.Fatal("traced run wrote no spans")
				}
				if err := checkNesting(spans); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSummaryMatchesPython pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), the rule run-to-run spread is judged
// by, and the -compare verdicts built on it.
func TestSummaryMatchesPython(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s != (summary{N: 10, Median: 5.5, Q1: 2.75, Q3: 8.25}) {
		t.Fatalf("summary %+v, want n=10 median 5.5 quartiles 2.75, 8.25", s)
	}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		head  []float64
		bound float64
		want  string
	}{
		{[]float64{104, 103, 105}, 0.1, "ok"},
		{[]float64{120, 118, 125}, 0.1, "regressed"},
		{[]float64{120, 118, 125}, 0.005, "unresolved"},
		{[]float64{90, 91, 89}, 0.005, "better"},
	} {
		if got, _ := judge(base, c.head, c.bound, true); got != c.want {
			t.Errorf("judge(%v, bound %g) = %s, want %s", c.head, c.bound, got, c.want)
		}
	}
}
