package psk

// One benchmark per table and figure of the paper's evaluation, plus
// the ablation and paradigm-comparison studies DESIGN.md calls out
// (E10, E11). Each benchmark regenerates the corresponding artifact
// through internal/experiments and reports domain metrics alongside
// time/allocs, so `go test -bench=. -benchmem` reproduces the whole
// evaluation. EXPERIMENTS.md records paper-vs-measured values.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/experiments"
	"psk/internal/generalize"
	"psk/internal/lattice"
	"psk/internal/loss"
	"psk/internal/search"
	"psk/internal/stream"
	"psk/internal/table"
)

// BenchmarkTable1MotivatingAttack regenerates the Section 2 attack
// (Tables 1-2): the intruder links the external list and learns Sam's
// and Eric's diagnosis.
func BenchmarkTable1MotivatingAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMotivatingAttack()
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.AttributeDisclosed != 2 {
			b.Fatalf("attribute disclosures = %d, want 2", res.Summary.AttributeDisclosed)
		}
	}
	b.ReportMetric(2, "disclosures")
}

// BenchmarkTable3PSensitivity regenerates the Table 3 analysis:
// 3-anonymous, 1-sensitive; 2-sensitive after the paper's edit.
func BenchmarkTable3PSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3Sensitivity()
		if err != nil {
			b.Fatal(err)
		}
		if res.Sensitivity != 1 || res.FixedSensitivity != 2 {
			b.Fatalf("sensitivity = %d/%d, want 1/2", res.Sensitivity, res.FixedSensitivity)
		}
	}
}

// BenchmarkFigure1Hierarchies regenerates the Figure 1 DGH/VGH
// renderings for ZipCode and Sex.
func BenchmarkFigure1Hierarchies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ZipCode.Levels) != 3 || len(res.Sex.Levels) != 2 {
			b.Fatal("wrong hierarchy shapes")
		}
	}
}

// BenchmarkFigure2Lattice regenerates the Figure 2 lattice (6 nodes,
// height 3).
func BenchmarkFigure2Lattice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure2()
		if err != nil {
			b.Fatal(err)
		}
		if res.Size != 6 || res.Height != 3 {
			b.Fatalf("lattice = %d/%d", res.Size, res.Height)
		}
	}
}

// BenchmarkFigure3SuppressionCounts regenerates Figure 3's per-node
// counts of tuples failing 3-anonymity (10, 7, 7, 2, 0, 0).
func BenchmarkFigure3SuppressionCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure3()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, c := range res.Counts {
			total += c
		}
		if total != 26 { // 10+7+7+2+0+0
			b.Fatalf("count total = %d, want 26", total)
		}
	}
}

// BenchmarkTable4MinimalGeneralizations regenerates Table 4: the
// 3-minimal generalizations for TS = 0..10.
func BenchmarkTable4MinimalGeneralizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 11 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkTables5and6FrequencySets regenerates Tables 5-6 and the
// maxGroups walk-through (300/100/50/25 for p = 2..5).
func BenchmarkTables5and6FrequencySets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunExample1()
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxGroups[5] != 25 {
			b.Fatalf("maxGroups(5) = %d, want 25", res.MaxGroups[5])
		}
	}
}

// BenchmarkTable7AdultHierarchies regenerates Table 7 and the Section 4
// lattice shape (96 nodes, height 9).
func BenchmarkTable7AdultHierarchies(b *testing.B) {
	im, err := dataset.Generate(4000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable7(im)
		if err != nil {
			b.Fatal(err)
		}
		if res.LatticeSize != 96 || res.Height != 9 {
			b.Fatalf("lattice = %d/%d", res.LatticeSize, res.Height)
		}
	}
}

// BenchmarkTable8AttributeDisclosures regenerates the paper's main
// experiment: k-minimal Samarati maskings of Adult samples (n = 400,
// 4000; k = 2, 3) and their attribute-disclosure counts.
func BenchmarkTable8AttributeDisclosures(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last experiments.Table8Result
	for i := 0; i < b.N; i++ {
		last, err = experiments.RunTable8(experiments.Table8Config{
			Source:     src,
			SampleSeed: 17,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	positive := 0
	for _, r := range last.Rows {
		if r.Disclosures > 0 {
			positive++
		}
	}
	b.ReportMetric(float64(positive), "cells-with-disclosures")
}

// BenchmarkAblationConditions measures Algorithm 2's necessary
// conditions against the basic Algorithm 1 inside a p-k-minimal search
// (the paper's future-work comparison, E10).
func BenchmarkAblationConditions(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(400, 17)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	base := search.Config{
		QIs:          dataset.QIs(),
		Confidential: dataset.Confidential(),
		Hierarchies:  hs,
		K:            3,
		P:            2,
		MaxSuppress:  4,
	}
	b.Run("WithConditions", func(b *testing.B) {
		cfg := base
		cfg.UseConditions = true
		benchSearch(b, im, cfg)
	})
	b.Run("WithoutConditions", func(b *testing.B) {
		cfg := base
		cfg.UseConditions = false
		benchSearch(b, im, cfg)
	})
}

// BenchmarkCheckAlgorithms compares Algorithm 1 (basic) with Algorithm
// 2 (improved) as standalone property tests on a masked Adult sample —
// the per-check version of the E10 ablation. The improved test's win
// comes from rejecting infeasible tables before the group scan.
func BenchmarkCheckAlgorithms(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(4000, 17)
	if err != nil {
		b.Fatal(err)
	}
	qis := dataset.QIs()
	conf := dataset.Confidential()
	// Precompute bounds once, as Theorems 1-2 license.
	bounds, err := core.ComputeBounds(im, conf, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Algorithm1Basic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CheckBasic(im, qis, conf, 2, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Algorithm2Improved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CheckWithBounds(im, qis, conf, 2, 3, bounds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchStrategies compares the three lattice searches on the
// same Adult workload (DESIGN.md ablation 3).
func BenchmarkSearchStrategies(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(1000, 17)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	cfg := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             3,
		P:             1,
		MaxSuppress:   10,
		UseConditions: true,
	}
	b.Run("Samarati", func(b *testing.B) { benchSearch(b, im, cfg) })
	b.Run("SamaratiWorkers4", func(b *testing.B) {
		c := cfg
		c.Workers = 4
		benchSearch(b, im, c)
	})
	b.Run("BottomUp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.Run(im, cfg, search.StrategyBottomUp)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Minimal) == 0 {
				b.Fatal("found nothing")
			}
		}
	})
	b.Run("Exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.Run(im, cfg, search.StrategyExhaustive)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Minimal) == 0 {
				b.Fatal("found nothing")
			}
		}
	})
}

// BenchmarkMondrianVsFullDomain compares the two recoding paradigms at
// equal k on the same sample (E11): Mondrian should produce far lower
// discernibility.
func BenchmarkMondrianVsFullDomain(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(2000, 17)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("FullDomain", func(b *testing.B) {
		cfg := search.Config{
			QIs:           dataset.QIs(),
			Confidential:  dataset.Confidential(),
			Hierarchies:   hs,
			K:             5,
			P:             1,
			MaxSuppress:   40,
			UseConditions: true,
		}
		benchSearch(b, im, cfg)
	})
	b.Run("Mondrian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.Mondrian(im, search.MondrianConfig{
				QIs: dataset.QIs(), K: 5, P: 1, Strict: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Partitions == 0 {
				b.Fatal("no partitions")
			}
		}
	})
}

// BenchmarkGroupBy exercises the table engine's group-by on Adult-sized
// data (DESIGN.md ablation 4's hash-based frequency sets).
func BenchmarkGroupBy(b *testing.B) {
	im, err := dataset.Generate(10000, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := im.GroupBy(dataset.QIs()...)
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

func benchSearch(b *testing.B, im *table.Table, cfg search.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := search.Run(im, cfg, search.StrategySamarati)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("found nothing")
		}
	}
}

// BenchmarkGreedyCluster measures the clustering generator (the
// follow-up-work algorithm) on an Adult sample at k=4, p=2.
func BenchmarkGreedyCluster(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(1000, 17)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := search.GreedyCluster(im, search.ClusterConfig{
			QIs: dataset.QIs(), Confidential: dataset.Confidential(), K: 4, P: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Clusters == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkAllMinimal compares predictive tagging against the
// exhaustive scan when enumerating the complete p-k-minimal antichain.
func BenchmarkAllMinimal(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(500, 17)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	cfg := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             3,
		P:             2,
		MaxSuppress:   10,
		UseConditions: true,
	}
	b.Run("PredictiveTagging", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.AllMinimal(im, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Minimal) == 0 {
				b.Fatal("found nothing")
			}
		}
	})
	b.Run("Exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.Run(im, cfg, search.StrategyExhaustive)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Minimal) == 0 {
				b.Fatal("found nothing")
			}
		}
	})
}

// BenchmarkLocalVsTupleSuppression compares the two suppression styles
// at the same lattice node.
func BenchmarkLocalVsTupleSuppression(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(2000, 17)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	m, err := generalize.NewMasker(dataset.QIs(), hs)
	if err != nil {
		b.Fatal(err)
	}
	node := lattice.Node{1, 1, 1, 0}
	g, err := m.Apply(im, node)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("TupleSuppression", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := m.Suppress(g, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CellSuppression", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := m.SuppressCells(g, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncognitoVsSamarati compares the subset-pruned complete
// search against binary search on the Adult lattice.
func BenchmarkIncognitoVsSamarati(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(500, 17)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	cfg := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             3,
		P:             2,
		MaxSuppress:   10,
		UseConditions: true,
	}
	b.Run("Incognito", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.Run(im, cfg, search.StrategyIncognito)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Minimal) == 0 {
				b.Fatal("found nothing")
			}
		}
	})
	b.Run("IncognitoWorkers4", func(b *testing.B) {
		c := cfg
		c.Workers = 4
		for i := 0; i < b.N; i++ {
			res, err := search.Run(im, c, search.StrategyIncognito)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Minimal) == 0 {
				b.Fatal("found nothing")
			}
		}
	})
	b.Run("Samarati", func(b *testing.B) { benchSearch(b, im, cfg) })
}

// BenchmarkAnatomize measures the bucketization release on an Adult
// sample (MaritalStatus as the sensitive attribute; Pay is too skewed
// to be anatomy-eligible, which EXPERIMENTS.md discusses).
func BenchmarkAnatomize(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(2000, 17)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := search.Anatomize(im, []string{dataset.Age, dataset.Race, dataset.Sex}, dataset.MaritalStatus, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Groups == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkMaskingMethods regenerates the E14 masking-method
// comparison (Section 2's survey, measured).
func BenchmarkMaskingMethods(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMethods(1000, 3, src, 17)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) < 5 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkEarlyExitVsFullScan compares the early-exit property check
// (CheckBasic stops at the first violating group) with the
// full-reporting scan (Violations visits every group) on a table that
// violates early (DESIGN.md ablation 2).
func BenchmarkEarlyExitVsFullScan(b *testing.B) {
	im, err := dataset.Generate(4000, 7)
	if err != nil {
		b.Fatal(err)
	}
	qis := dataset.QIs()
	conf := dataset.Confidential()
	b.Run("EarlyExit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CheckBasic(im, qis, conf, 2, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Violations(im, qis, conf, 2, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDisclosureDecay regenerates the E15 sweep: attribute
// disclosures of k-minimal maskings as k grows.
func BenchmarkDisclosureDecay(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDisclosureDecay(1000, []int{2, 4, 8}, src, 17)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Disclosures) != 3 {
			b.Fatal("short series")
		}
	}
}

// BenchmarkPolicy measures what composing properties costs the lattice
// search on the Adult workload: the built-in p-sensitive k-anonymity
// target (Legacy), the same target expressed as a composite policy
// (Composite — must cost the same, since the verdict path is shared),
// and a strictly stronger conjunction adding 0.5-closeness (Strict —
// the search the single-property path cannot express). The policy
// layer's repeated-sample figures come from the bench/ frontier
// workload (core.policy_ms, traced).
func BenchmarkPolicy(b *testing.B) {
	src, err := dataset.Generate(30000, 2006)
	if err != nil {
		b.Fatal(err)
	}
	im, err := src.Sample(1000, 17)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	conf := dataset.Confidential()
	base := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  conf,
		Hierarchies:   hs,
		K:             3,
		P:             2,
		MaxSuppress:   10,
		UseConditions: true,
	}
	variants := []struct {
		name string
		mut  func(*search.Config)
	}{
		{"Legacy", func(c *search.Config) {}},
		{"Composite", func(c *search.Config) {
			c.Policy = core.All(
				core.PSensitiveKAnonymityPolicy{P: c.P, K: c.K},
				core.DistinctLDiversityPolicy{Attr: conf[0], L: c.P},
			)
		}},
		{"Strict", func(c *search.Config) {
			c.Policy = core.All(
				core.PSensitiveKAnonymityPolicy{P: c.P, K: c.K},
				core.TClosenessPolicy{Attr: conf[0], T: 0.5},
			)
		}},
	}
	for _, v := range variants {
		cfg := base
		v.mut(&cfg)
		b.Run(fmt.Sprintf("Samarati/%s", v.name), func(b *testing.B) { benchSearch(b, im, cfg) })
	}
	for _, v := range variants {
		cfg := base
		v.mut(&cfg)
		b.Run(fmt.Sprintf("Incognito/%s", v.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := search.Run(im, cfg, search.StrategyIncognito)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Minimal) == 0 {
					b.Fatal("found nothing")
				}
			}
		})
	}
}

// BenchmarkScale proves the columnar substrate at production scale on
// the full 48,842-row Adult shape times 2 / 20 / 205 (~100k / ~1M /
// ~10M rows, dataset.GenerateScaled). BaseScan measures the verdict
// substrate itself — one GroupStats pass over all four QIs and all
// four confidential attributes — through the chunked packed kernel
// (Packed) and the retained per-row reference kernel (Rowwise), whose
// ratio is the packed substrate's win. Samarati runs the whole search
// at ~100k and ~1M rows. Every sub-benchmark reports ns/row and
// allocs/row, the two numbers that must stay flat as rows grow.
// Under -short (the `make check` smoke run) only the ~100k tier runs.
// The repeated-sample base-scan figures come from the bench/ frontier
// and republish workloads (search.base-group-by_ms).
func BenchmarkScale(b *testing.B) {
	factors := []int{2, 20, 205}
	if testing.Short() {
		factors = factors[:1]
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	qis, conf := dataset.QIs(), dataset.Confidential()
	for _, factor := range factors {
		im, err := dataset.GenerateScaled(factor, 2006)
		if err != nil {
			b.Fatal(err)
		}
		rows := im.NumRows()
		b.Run(fmt.Sprintf("BaseScan/Packed/x%d", factor), func(b *testing.B) {
			benchPerRow(b, rows, func() error {
				s, err := im.GroupStats(qis, conf, 1)
				if err == nil && s.NumGroups() == 0 {
					return fmt.Errorf("no groups")
				}
				return err
			})
		})
		b.Run(fmt.Sprintf("BaseScan/Rowwise/x%d", factor), func(b *testing.B) {
			benchPerRow(b, rows, func() error {
				s, err := im.GroupStatsRowwise(qis, conf, 1)
				if err == nil && s.NumGroups() == 0 {
					return fmt.Errorf("no groups")
				}
				return err
			})
		})
		if factor > 20 {
			// The ~10M tier exercises the base scan only; the full
			// search is proven at ~1M and its cost there bounds the
			// per-node work, which the roll-up layer makes row-free
			// past the base scan anyway.
			continue
		}
		cfg := search.Config{
			QIs:           qis,
			Confidential:  conf,
			Hierarchies:   hs,
			K:             10,
			P:             2,
			MaxSuppress:   rows / 100,
			UseConditions: true,
		}
		b.Run(fmt.Sprintf("Samarati/x%d", factor), func(b *testing.B) {
			benchPerRow(b, rows, func() error {
				res, err := search.Run(im, cfg, search.StrategySamarati)
				if err == nil && !res.Found {
					return fmt.Errorf("found nothing")
				}
				return err
			})
		})
	}
}

// benchPerRow runs fn b.N times and reports ns/row and allocs/row on
// top of the standard per-op numbers, so scale benchmarks are
// comparable across row counts.
func benchPerRow(b *testing.B, rows int, fn func() error) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perRow := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRow, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perRow, "allocs/row")
}

// BenchmarkIncremental measures the streaming publisher against the
// cold republish it replaces, on the ~1M-row Adult shape
// (GenerateScaled x20; the ~100k x2 tier under -short) across a churn
// ladder of 0.1% / 1% / 10% rows per batch. Warm is the incremental
// loop — Apply the delta, Republish the maintained node — whose cost
// is proportional to the delta (the allocs/op column scales with the
// churn, not the table). Cold is the same delta absorbed into a plain
// ledger followed by a full Samarati re-search of the live snapshot,
// the O(rows) pipeline a batch publisher would re-run. SpeedupPin
// fails the benchmark if the warm path is not at least 10x faster per
// batch at 0.1% churn, and `make check` runs it. The repeated-sample
// per-batch figures come from the bench/ republish workload.
func BenchmarkIncremental(b *testing.B) {
	factor := 20
	if testing.Short() {
		factor = 2
	}
	im, err := dataset.GenerateScaled(factor, 2006)
	if err != nil {
		b.Fatal(err)
	}
	rows := im.NumRows()
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	cfg := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             10,
		P:             2,
		MaxSuppress:   rows / 100,
		UseConditions: true,
	}
	// Batches are pregenerated per epoch; when a timed loop outruns the
	// supply, the session is rebuilt off the clock and the stream starts
	// over (retire ids are only valid against the session they were
	// generated for).
	const supply = 64
	churns := []struct {
		name string
		frac float64
	}{{"Churn0.1", 0.001}, {"Churn1", 0.01}, {"Churn10", 0.1}}

	for _, c := range churns {
		c := c
		b.Run("Warm/"+c.name, func(b *testing.B) {
			var (
				s       *search.Incremental
				batches []stream.Batch
				next    int
			)
			reset := func() {
				var err error
				if s, err = search.OpenIncremental(im, cfg, search.StrategySamarati); err != nil {
					b.Fatal(err)
				}
				if res, err := s.Republish(); err != nil || !res.Found {
					b.Fatalf("initial publish: found %v, err %v", res.Found, err)
				}
				if batches, err = dataset.GenerateBatches(rows, supply, c.frac, 7); err != nil {
					b.Fatal(err)
				}
				next = 0
			}
			reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == len(batches) {
					b.StopTimer()
					reset()
					b.StartTimer()
				}
				batch := batches[next]
				next++
				if err := s.Apply(batch.Append, batch.Retire); err != nil {
					b.Fatal(err)
				}
				res, err := s.Republish()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Found {
					b.Fatal("republish found nothing")
				}
			}
		})
		b.Run("Cold/"+c.name, func(b *testing.B) {
			led := table.NewLedger(im)
			batches, err := dataset.GenerateBatches(rows, supply, c.frac, 7)
			if err != nil {
				b.Fatal(err)
			}
			next := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == len(batches) {
					b.StopTimer()
					led = table.NewLedger(im)
					next = 0
					b.StartTimer()
				}
				batch := batches[next]
				next++
				if err := applyToLedger(led, batch); err != nil {
					b.Fatal(err)
				}
				snap, err := led.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				res, err := search.Run(snap, cfg, search.StrategySamarati)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Found {
					b.Fatal("cold search found nothing")
				}
			}
		})
	}

	// SpeedupPin is the acceptance gate, not a throughput number: it
	// times a handful of warm batches and one cold republish on the same
	// post-delta rows and fails unless warm wins by at least 10x.
	b.Run("SpeedupPin/Churn0.1", func(b *testing.B) {
		n := 3
		batches, err := dataset.GenerateBatches(rows, n, 0.001, 7)
		if err != nil {
			b.Fatal(err)
		}
		s, err := search.OpenIncremental(im, cfg, search.StrategySamarati)
		if err != nil {
			b.Fatal(err)
		}
		if res, err := s.Republish(); err != nil || !res.Found {
			b.Fatalf("initial publish: found %v, err %v", res.Found, err)
		}
		warmStart := time.Now()
		for _, batch := range batches {
			if err := s.Apply(batch.Append, batch.Retire); err != nil {
				b.Fatal(err)
			}
			res, err := s.Republish()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Found {
				b.Fatal("republish found nothing")
			}
		}
		warmPer := time.Since(warmStart) / time.Duration(n)

		led := table.NewLedger(im)
		for _, batch := range batches {
			if err := applyToLedger(led, batch); err != nil {
				b.Fatal(err)
			}
		}
		coldStart := time.Now()
		snap, err := led.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		res, err := search.Run(snap, cfg, search.StrategySamarati)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("cold search found nothing")
		}
		coldPer := time.Since(coldStart)

		b.ReportMetric(float64(coldPer)/float64(warmPer), "x-speedup")
		if coldPer < 10*warmPer {
			b.Errorf("incremental republish (%v/batch) is not 10x faster than cold (%v/batch) at 0.1%% churn", warmPer, coldPer)
		}
	})
}

// applyToLedger absorbs one delta batch into a plain ledger — the row
// bookkeeping both the cold and warm republish variants share.
func applyToLedger(led *table.Ledger, batch stream.Batch) error {
	for _, id := range batch.Retire {
		if err := led.Retire(id); err != nil {
			return err
		}
	}
	for _, cells := range batch.Append {
		if _, err := led.AppendText(cells); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkFrontier measures the utility-aware Pareto frontier pass on
// the scaled Adult shape (x2 ~100k rows; x20 ~1M rows, skipped under
// -short). Frontier is one AllMinimal call with the frontier enabled:
// every satisfying node is scored from its memoized post-suppression
// statistics, nothing is materialized. AllMinimalThenScore is the
// workflow the frontier replaces — enumerate the minimal antichain,
// materialize each node's masked table, and score it with the row-
// scanning loss oracles. The AllocsPin sub-benchmark is the acceptance
// gate for the O(groups) claim: one MeasureStats call on the ~1M-row
// base statistics must allocate proportionally to the group count, far
// below the row count, and `make check` runs it. The repeated-sample
// frontier figures come from the bench/ frontier workload.
func BenchmarkFrontier(b *testing.B) {
	factors := []int{2, 20}
	if testing.Short() {
		factors = factors[:1]
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		b.Fatal(err)
	}
	qis, conf := dataset.QIs(), dataset.Confidential()
	m, err := generalize.NewMasker(qis, hs)
	if err != nil {
		b.Fatal(err)
	}
	for _, factor := range factors {
		im, err := dataset.GenerateScaled(factor, 2006)
		if err != nil {
			b.Fatal(err)
		}
		rows := im.NumRows()
		cfg := search.Config{
			QIs:           qis,
			Confidential:  conf,
			Hierarchies:   hs,
			K:             10,
			P:             2,
			MaxSuppress:   rows / 100,
			UseConditions: true,
		}
		b.Run(fmt.Sprintf("Frontier/x%d", factor), func(b *testing.B) {
			c := cfg
			c.Frontier = search.FrontierConfig{Enabled: true}
			benchPerRow(b, rows, func() error {
				res, err := search.AllMinimal(im, c)
				if err == nil && len(res.Frontier) == 0 {
					return fmt.Errorf("empty frontier")
				}
				return err
			})
		})
		b.Run(fmt.Sprintf("AllMinimalThenScore/x%d", factor), func(b *testing.B) {
			benchPerRow(b, rows, func() error {
				res, err := search.AllMinimal(im, cfg)
				if err != nil {
					return err
				}
				if len(res.Minimal) == 0 {
					return fmt.Errorf("found nothing")
				}
				for _, min := range res.Minimal {
					rep, err := loss.Measure(loss.Input{
						Initial: im, Masked: min.Masked, QIs: qis,
						Node: min.Node, Lattice: m.Lattice(), K: cfg.K,
					})
					if err != nil {
						return err
					}
					if rep.Discernibility == 0 {
						return fmt.Errorf("zero discernibility")
					}
				}
				return nil
			})
		})
		if factor != factors[len(factors)-1] {
			continue
		}
		// AllocsPin: scoring the largest tier's base statistics must cost
		// O(groups) allocations — the bound that proves no per-row work
		// hides in the stats-native metrics.
		b.Run(fmt.Sprintf("AllocsPin/x%d", factor), func(b *testing.B) {
			s, err := im.GroupStats(qis, conf, 1)
			if err != nil {
				b.Fatal(err)
			}
			base, err := loss.NewBaseline(im, qis)
			if err != nil {
				b.Fatal(err)
			}
			bottom := make(lattice.Node, len(qis))
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := loss.MeasureStats(loss.StatsInput{
					Stats: s, Rows: rows, Baseline: base,
					Node: bottom, Lattice: m.Lattice(), K: cfg.K,
				}); err != nil {
					b.Fatal(err)
				}
			})
			bound := float64(8*s.NumGroups() + 256)
			b.ReportMetric(allocs, "allocs/score")
			b.ReportMetric(float64(s.NumGroups()), "groups")
			if allocs > bound {
				b.Errorf("MeasureStats allocates %.0f/op over %d groups (bound %.0f) — not O(groups)", allocs, s.NumGroups(), bound)
			}
		})
	}
}
