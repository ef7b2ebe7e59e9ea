// Census: the paper's Section 4 workload. Anonymize an Adult census
// sample with the Table 7 hierarchies, compare the three lattice search
// strategies and the Mondrian baseline, and measure utility.
package main

import (
	"fmt"
	"log"
	"time"

	"psk"
	"psk/internal/dataset"
)

func main() {
	// A 4000-record sample, as in the paper's larger experiment. Use
	// cmd/adultgen to materialize the same data as CSV, or pass a real
	// adult.data through dataset.Load.
	pool, err := dataset.Generate(30000, 2006)
	if err != nil {
		log.Fatal(err)
	}
	im, err := pool.Sample(4000, 17)
	if err != nil {
		log.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		log.Fatal(err)
	}

	cfg := psk.Config{
		QuasiIdentifiers: dataset.QIs(),
		Confidential:     dataset.Confidential(),
		Hierarchies:      hs,
		K:                3,
		P:                2,
		MaxSuppress:      40,
	}

	fmt.Printf("Initial microdata: %d records, QIs %v\n\n", im.NumRows(), cfg.QuasiIdentifiers)

	for _, alg := range []struct {
		name string
		a    psk.Algorithm
	}{
		{"Samarati binary search", psk.AlgorithmSamarati},
		{"bottom-up level scan", psk.AlgorithmBottomUp},
	} {
		c := cfg
		c.Algorithm = alg.a
		start := time.Now()
		res, err := psk.Anonymize(im, c)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if !res.Found {
			fmt.Printf("%-24s: no solution\n", alg.name)
			continue
		}
		rep, err := psk.MeasureUtility(im, res.Masked, c, res.Node)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s: node %s  suppressed %d  precision %.3f  DM %d  (%v)\n",
			alg.name, res.Node, res.Suppressed, rep.Precision, rep.Discernibility, elapsed)
		if len(res.AllMinimal) > 1 {
			fmt.Printf("%-24s  minimal nodes at that height: %v\n", "", res.AllMinimal)
		}
	}

	// Mondrian: multidimensional recoding with the same k and p.
	start := time.Now()
	masked, err := psk.Mondrian(im, cfg.QuasiIdentifiers, cfg.Confidential, cfg.K, cfg.P)
	if err != nil {
		log.Fatal(err)
	}
	ok, err := psk.IsPSensitiveKAnonymous(masked, cfg.QuasiIdentifiers, cfg.Confidential, cfg.P, cfg.K)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := masked.NumGroups(cfg.QuasiIdentifiers...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s: %d partitions  property holds: %v  (%v)\n",
		"Mondrian baseline", groups, ok, time.Since(start))

	// Inspect the release with SQL, as the paper does.
	out, err := psk.Query(map[string]*psk.Table{"MM": masked},
		"SELECT Sex, COUNT(*) AS n, COUNT(DISTINCT Pay) AS pays FROM MM GROUP BY Sex ORDER BY n DESC")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSQL inspection of the Mondrian release:")
	fmt.Print(out.Format(-1))
}
