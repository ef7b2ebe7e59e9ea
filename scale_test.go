package psk

import (
	"testing"
	"time"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/search"
)

// TestScaleFullPipeline drives the complete pipeline on a 50,000-record
// synthetic Adult: generation, Samarati search, property verification,
// disclosure counting and risk measurement. Guarded by -short so the
// regular test loop stays fast.
func TestScaleFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	start := time.Now()
	im, err := dataset.Generate(50000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	cfg := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             10,
		P:             2,
		MaxSuppress:   500,
		UseConditions: true,
	}
	res, err := search.Run(im, cfg, search.StrategySamarati)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no solution on the 50k workload")
	}
	chk, err := core.Check(res.Masked, cfg.QIs, cfg.Confidential, cfg.P, cfg.K)
	if err != nil || !chk.Satisfied {
		t.Fatalf("verification failed: %+v, %v", chk, err)
	}
	m, err := MeasureRisk(res.Masked, cfg.QIs)
	if err != nil {
		t.Fatal(err)
	}
	if m.ProsecutorMax > 1.0/float64(cfg.K) {
		t.Errorf("prosecutor risk %g exceeds 1/k", m.ProsecutorMax)
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Minute {
		t.Errorf("pipeline took %v; expected well under two minutes", elapsed)
	}
	t.Logf("50k pipeline: node %v, %d suppressed, %d groups, %v",
		res.Node, res.Suppressed, m.Groups, elapsed)
}

// TestScaleClusteringAndChecks exercises GreedyCluster and the check
// algorithms on 10,000 records (also -short guarded).
func TestScaleClusteringAndChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	im, err := dataset.Generate(10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.GreedyCluster(im, search.ClusterConfig{
		QIs:          dataset.QIs(),
		Confidential: []string{dataset.Pay, dataset.TaxPeriod},
		K:            8,
		P:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	chk, err := core.Check(res.Masked, dataset.QIs(), []string{dataset.Pay, dataset.TaxPeriod}, 2, 8)
	if err != nil || !chk.Satisfied {
		t.Fatalf("cluster verification: %+v, %v", chk, err)
	}
	basic, err := core.CheckBasic(res.Masked, dataset.QIs(), []string{dataset.Pay, dataset.TaxPeriod}, 2, 8)
	if err != nil || !basic {
		t.Fatalf("algorithms disagree at scale: %v, %v", basic, err)
	}
}
