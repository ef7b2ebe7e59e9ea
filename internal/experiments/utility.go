package experiments

import (
	"fmt"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/loss"
	"psk/internal/search"
	"psk/internal/table"
)

// E11: full-domain generalization versus Mondrian at equal (k, p) — the
// utility comparison DESIGN.md calls out as an extension study.

// UtilityRow compares the two paradigms for one (k, p).
type UtilityRow struct {
	K, P int
	// FullDomain metrics (Samarati's k-minimal node).
	FDFound          bool
	FDNode           string
	FDDiscernibility int
	FDAvgGroupRatio  float64
	FDPrecision      float64
	FDSuppressed     int
	// Mondrian metrics.
	MPartitions     int
	MDiscernibility int
	MAvgGroupRatio  float64
	MPSatisfied     bool
	// GreedyCluster metrics.
	CClusters       int
	CDiscernibility int
	CAvgGroupRatio  float64
	CPSatisfied     bool
}

// propertyHolds checks the target property on a masked table: plain
// k-anonymity when p = 1, the full p-sensitive check otherwise.
func propertyHolds(mm *table.Table, p, k int) (bool, error) {
	if p >= 2 {
		chk, err := core.Check(mm, dataset.QIs(), dataset.Confidential(), p, k)
		if err != nil {
			return false, err
		}
		return chk.Satisfied, nil
	}
	return core.IsKAnonymous(mm, dataset.QIs(), k)
}

// UtilityResult is the E11 study.
type UtilityResult struct {
	Size int
	Rows []UtilityRow
}

// RunUtility compares full-domain generalization (Samarati) with
// Mondrian partitioning on an Adult sample across k values, reporting
// discernibility, average group ratio and precision. Mondrian's
// multidimensional recoding should win on utility (lower DM, C_AVG
// closer to 1), which is the crossover the anonymization literature
// reports; the benches verify that shape.
func RunUtility(n int, ks []int, p int, source *table.Table, seed int64) (UtilityResult, error) {
	if len(ks) == 0 {
		ks = []int{2, 5, 10, 25}
	}
	src := source
	if src == nil {
		var err error
		src, err = dataset.Generate(30000, 2006)
		if err != nil {
			return UtilityResult{}, err
		}
	}
	im, err := src.Sample(n, seed)
	if err != nil {
		return UtilityResult{}, err
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		return UtilityResult{}, err
	}

	res := UtilityResult{Size: n}
	for _, k := range ks {
		row := UtilityRow{K: k, P: p}

		sr, err := search.Run(im, search.Config{
			QIs:           dataset.QIs(),
			Confidential:  dataset.Confidential(),
			Hierarchies:   hs,
			K:             k,
			P:             p,
			MaxSuppress:   n / 50,
			UseConditions: true,
		}, search.StrategySamarati)
		if err != nil {
			return UtilityResult{}, err
		}
		row.FDFound = sr.Found
		if sr.Found {
			row.FDNode = sr.Node.Label(dataset.LatticePrefixes())
			row.FDSuppressed = sr.Suppressed
			row.FDDiscernibility = sr.Utility.Discernibility
			row.FDAvgGroupRatio = sr.Utility.AvgGroupRatio
			row.FDPrecision = sr.Utility.Precision
		}

		mr, err := search.Mondrian(im, search.MondrianConfig{
			QIs:          dataset.QIs(),
			Confidential: dataset.Confidential(),
			K:            k,
			P:            p,
		})
		if err != nil {
			return UtilityResult{}, err
		}
		row.MPartitions = mr.Partitions
		row.MDiscernibility, err = loss.Discernibility(mr.Masked, dataset.QIs(), im.NumRows())
		if err != nil {
			return UtilityResult{}, err
		}
		row.MAvgGroupRatio, err = loss.AvgGroupRatio(mr.Masked, dataset.QIs(), k)
		if err != nil {
			return UtilityResult{}, err
		}
		row.MPSatisfied, err = propertyHolds(mr.Masked, p, k)
		if err != nil {
			return UtilityResult{}, err
		}

		cr, err := search.GreedyCluster(im, search.ClusterConfig{
			QIs:          dataset.QIs(),
			Confidential: dataset.Confidential(),
			K:            k,
			P:            p,
		})
		if err != nil {
			return UtilityResult{}, err
		}
		row.CClusters = cr.Clusters
		row.CDiscernibility, err = loss.Discernibility(cr.Masked, dataset.QIs(), im.NumRows())
		if err != nil {
			return UtilityResult{}, err
		}
		row.CAvgGroupRatio, err = loss.AvgGroupRatio(cr.Masked, dataset.QIs(), k)
		if err != nil {
			return UtilityResult{}, err
		}
		row.CPSatisfied, err = propertyHolds(cr.Masked, p, k)
		if err != nil {
			return UtilityResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the utility comparison.
func (r UtilityResult) Format() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		fd := "not found"
		if row.FDFound {
			fd = fmt.Sprintf("%s DM=%d C_AVG=%.2f Prec=%.3f supp=%d",
				row.FDNode, row.FDDiscernibility, row.FDAvgGroupRatio, row.FDPrecision, row.FDSuppressed)
		}
		rows[i] = []string{
			fmt.Sprintf("k=%d p=%d", row.K, row.P),
			fd,
			fmt.Sprintf("parts=%d DM=%d C_AVG=%.2f ok=%v",
				row.MPartitions, row.MDiscernibility, row.MAvgGroupRatio, row.MPSatisfied),
			fmt.Sprintf("clusters=%d DM=%d C_AVG=%.2f ok=%v",
				row.CClusters, row.CDiscernibility, row.CAvgGroupRatio, row.CPSatisfied),
		}
	}
	return fmt.Sprintf("Full-domain vs Mondrian vs GreedyCluster on Adult n=%d (E11):\n%s", r.Size,
		renderTable([]string{"Config", "Full-domain (Samarati)", "Mondrian", "GreedyCluster"}, rows))
}
