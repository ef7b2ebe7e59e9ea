package experiments

import (
	"fmt"
	"strings"
	"time"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/search"
	"psk/internal/table"
)

// E8: Table 7 — the Adult key-attribute generalizations.

// Table7Row describes one attribute's hierarchy.
type Table7Row struct {
	Attribute      string
	DistinctValues int
	LevelNames     []string
}

// Table7Result is the rendered Table 7.
type Table7Result struct {
	Rows        []Table7Row
	LatticeSize int
	Height      int
}

// RunTable7 reproduces Table 7: the generalization chosen for each
// Adult key attribute, plus the induced lattice shape (96 nodes, height
// 9) from Section 4.
func RunTable7(im *table.Table) (Table7Result, error) {
	hs, err := dataset.Hierarchies()
	if err != nil {
		return Table7Result{}, err
	}
	var res Table7Result
	for _, attr := range dataset.QIs() {
		h, err := hs.Get(attr)
		if err != nil {
			return Table7Result{}, err
		}
		d, err := im.DistinctCount(attr)
		if err != nil {
			return Table7Result{}, err
		}
		row := Table7Row{Attribute: attr, DistinctValues: d}
		for lvl := 1; lvl <= h.Height(); lvl++ {
			row.LevelNames = append(row.LevelNames, h.LevelName(lvl))
		}
		res.Rows = append(res.Rows, row)
		res.Height += h.Height()
		if res.LatticeSize == 0 {
			res.LatticeSize = 1
		}
		res.LatticeSize *= h.Height() + 1
	}
	return res, nil
}

// Format renders Table 7.
func (r Table7Result) Format() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Attribute, fmt.Sprint(row.DistinctValues),
			strings.Join(row.LevelNames, " -> ")}
	}
	return fmt.Sprintf("Adult key attribute generalizations (Table 7):\n%s"+
		"Lattice: %d nodes, height %d\n",
		renderTable([]string{"Attribute", "Distinct", "Generalizations"}, rows),
		r.LatticeSize, r.Height)
}

// E9: Table 8 — attribute disclosures on k-minimal Adult maskings.

// Table8Row is one experiment cell of Table 8.
type Table8Row struct {
	Size        int
	K           int
	Node        string
	Height      int
	Suppressed  int
	Groups      int
	Disclosures int
	// PSensitive2 reports whether the k-minimal masking already has
	// 2-sensitive k-anonymity (the paper found it does not in 3 of 4
	// cells).
	PSensitive2 bool
}

// Table8Config parameterizes the Table 8 run.
type Table8Config struct {
	// Sizes are the sample sizes (paper: 400, 4000).
	Sizes []int
	// Ks are the k values (paper: 2, 3).
	Ks []int
	// Source is the initial microdata pool to sample from; when nil a
	// synthetic Adult of 30000 rows (seed 2006) is generated.
	Source *table.Table
	// SampleSeed makes the per-size samples reproducible.
	SampleSeed int64
	// MaxSuppress is the per-run suppression threshold (the paper does
	// not state its TS; 0 reproduces the paper's node heights best).
	MaxSuppress int
}

// Table8Result is the full Table 8 reproduction.
type Table8Result struct {
	Rows []Table8Row
}

// RunTable8 reproduces the paper's main experiment: for each sample
// size and k, find the k-minimal generalization with Samarati's binary
// search and count the attribute disclosures (QI-group x confidential
// attribute pairs with a constant value, i.e. 2-sensitivity violations)
// in the resulting masked microdata.
func RunTable8(cfg Table8Config) (Table8Result, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{400, 4000}
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{2, 3}
	}
	src := cfg.Source
	if src == nil {
		var err error
		src, err = dataset.Generate(30000, 2006)
		if err != nil {
			return Table8Result{}, err
		}
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		return Table8Result{}, err
	}

	var res Table8Result
	for _, n := range cfg.Sizes {
		im, err := src.Sample(n, cfg.SampleSeed)
		if err != nil {
			return Table8Result{}, err
		}
		for _, k := range cfg.Ks {
			sr, err := search.Run(im, search.Config{
				QIs:           dataset.QIs(),
				Confidential:  dataset.Confidential(),
				Hierarchies:   hs,
				K:             k,
				P:             1, // the paper searches for k-minimal, then inspects
				MaxSuppress:   cfg.MaxSuppress,
				UseConditions: true,
			}, search.StrategySamarati)
			if err != nil {
				return Table8Result{}, err
			}
			if !sr.Found {
				return Table8Result{}, fmt.Errorf("experiments: no %d-minimal generalization for n=%d", k, n)
			}
			disc, err := core.AttributeDisclosures(sr.Masked, dataset.QIs(), dataset.Confidential(), 2)
			if err != nil {
				return Table8Result{}, err
			}
			groups, err := sr.Masked.NumGroups(dataset.QIs()...)
			if err != nil {
				return Table8Result{}, err
			}
			res.Rows = append(res.Rows, Table8Row{
				Size:        n,
				K:           k,
				Node:        sr.Node.Label(dataset.LatticePrefixes()),
				Height:      sr.Node.Height(),
				Suppressed:  sr.Suppressed,
				Groups:      groups,
				Disclosures: disc,
				PSensitive2: disc == 0,
			})
		}
	}
	return res, nil
}

// Format renders Table 8.
func (r Table8Result) Format() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d and %d-anonymity", row.Size, row.K),
			row.Node,
			fmt.Sprint(row.Disclosures),
			fmt.Sprint(row.Groups),
			fmt.Sprint(row.Suppressed),
		}
	}
	return "Attribute disclosures for k-minimal maskings (Table 8):\n" +
		renderTable([]string{"Size and k-anonymity", "Lattice node", "Attr disclosures", "QI-groups", "Suppressed"}, rows)
}

// E10: the future-work ablation — Algorithm 2's necessary conditions
// versus the basic Algorithm 1 inside a p-k-minimal search.

// AblationRow compares one configuration with conditions on and off.
type AblationRow struct {
	Size, K, P int
	// WithConditions / WithoutConditions report elapsed wall time and
	// detailed group scans for the two variants.
	TimeWith, TimeWithout   time.Duration
	ScansWith, ScansWithout int
	// SameOutcome confirms both variants found the same node height (or
	// both found nothing).
	SameOutcome bool
}

// AblationResult is the E10 study.
type AblationResult struct {
	Rows []AblationRow
}

// RunAblation measures the benefit of the two necessary conditions
// (Algorithm 2 / Algorithm 3) over the basic test (Algorithm 1) during
// p-k-minimal searches on Adult samples — the comparison the paper's
// future-work section proposes.
func RunAblation(sizes []int, k, p int, source *table.Table, seed int64) (AblationResult, error) {
	if len(sizes) == 0 {
		sizes = []int{400, 4000}
	}
	src := source
	if src == nil {
		var err error
		src, err = dataset.Generate(30000, 2006)
		if err != nil {
			return AblationResult{}, err
		}
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		return AblationResult{}, err
	}
	var res AblationResult
	for _, n := range sizes {
		im, err := src.Sample(n, seed)
		if err != nil {
			return AblationResult{}, err
		}
		cfg := search.Config{
			QIs:           dataset.QIs(),
			Confidential:  dataset.Confidential(),
			Hierarchies:   hs,
			K:             k,
			P:             p,
			MaxSuppress:   n / 100,
			UseConditions: true,
		}
		start := time.Now()
		with, err := search.Run(im, cfg, search.StrategySamarati)
		if err != nil {
			return AblationResult{}, err
		}
		tWith := time.Since(start)

		cfg.UseConditions = false
		start = time.Now()
		without, err := search.Run(im, cfg, search.StrategySamarati)
		if err != nil {
			return AblationResult{}, err
		}
		tWithout := time.Since(start)

		same := with.Found == without.Found
		if same && with.Found {
			same = with.Node.Height() == without.Node.Height()
		}
		res.Rows = append(res.Rows, AblationRow{
			Size: n, K: k, P: p,
			TimeWith: tWith, TimeWithout: tWithout,
			ScansWith: with.Stats.GroupScans, ScansWithout: without.Stats.GroupScans,
			SameOutcome: same,
		})
	}
	return res, nil
}

// Format renders the ablation rows.
func (r AblationResult) Format() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("n=%d k=%d p=%d", row.Size, row.K, row.P),
			row.TimeWith.String(), row.TimeWithout.String(),
			fmt.Sprint(row.ScansWith), fmt.Sprint(row.ScansWithout),
			fmt.Sprint(row.SameOutcome),
		}
	}
	return "Necessary-condition ablation (Algorithm 2 vs Algorithm 1 inside Samarati):\n" +
		renderTable([]string{"Config", "t(with)", "t(without)", "scans(with)", "scans(without)", "same outcome"}, rows)
}

// E15: the disclosure-decay sweep — the paper's closing observation
// ("when the value of k increases, the number of attribute disclosures
// decreases ... [but] the attribute disclosure problem is not avoided")
// rendered as a series over k.

// DecayResult is the E15 sweep.
type DecayResult struct {
	Size int
	Ks   []int
	// Disclosures[i] is the 2-sensitivity violation count of the
	// k=Ks[i]-minimal masking.
	Disclosures []int
	// Heights[i] is the k-minimal node height.
	Heights []int
}

// RunDisclosureDecay sweeps k and records the attribute disclosures of
// each k-minimal masking on one Adult sample.
func RunDisclosureDecay(n int, ks []int, source *table.Table, seed int64) (DecayResult, error) {
	if len(ks) == 0 {
		ks = []int{2, 3, 4, 5, 6, 8, 10}
	}
	t8, err := RunTable8(Table8Config{
		Sizes:      []int{n},
		Ks:         ks,
		Source:     source,
		SampleSeed: seed,
	})
	if err != nil {
		return DecayResult{}, err
	}
	res := DecayResult{Size: n, Ks: ks}
	for _, row := range t8.Rows {
		res.Disclosures = append(res.Disclosures, row.Disclosures)
		res.Heights = append(res.Heights, row.Height)
	}
	return res, nil
}

// Format renders the series.
func (r DecayResult) Format() string {
	rows := make([][]string, len(r.Ks))
	for i := range r.Ks {
		rows[i] = []string{
			fmt.Sprint(r.Ks[i]),
			fmt.Sprint(r.Heights[i]),
			fmt.Sprint(r.Disclosures[i]),
		}
	}
	return fmt.Sprintf("Attribute disclosures vs k on Adult n=%d (E15):\n%s", r.Size,
		renderTable([]string{"k", "node height", "attr disclosures"}, rows))
}
