package experiments

import (
	"fmt"
	"math"

	"psk/internal/dataset"
	"psk/internal/mask"
	"psk/internal/risk"
	"psk/internal/search"
	"psk/internal/table"
)

// E14: the Section 2 masking-method survey as a measured comparison.
// Each method masks the same Adult sample's Age attribute (plus, for
// the grouping methods, the other QIs); the study then measures
// re-identification risk (prosecutor max and marketer over the QI set)
// and utility (mean absolute error of Age, fraction of exactly
// preserved values).

// MethodRow is one masking method's risk/utility profile.
type MethodRow struct {
	Method string
	// ProsecutorMax and MarketerRisk are over the full QI set.
	ProsecutorMax float64
	MarketerRisk  float64
	// AgeMAE is the mean absolute error of the Age attribute (numeric
	// utility). Range-recoded methods use the range midpoint.
	AgeMAE float64
	// ExactAges is the fraction of records whose released Age equals
	// the original.
	ExactAges float64
}

// MethodsResult is the E14 study.
type MethodsResult struct {
	Size int
	K    int
	Rows []MethodRow
}

// RunMethods compares the disclosure-control methods of the paper's
// Section 2 on one Adult sample.
func RunMethods(n, k int, source *table.Table, seed int64) (MethodsResult, error) {
	src := source
	if src == nil {
		var err error
		src, err = dataset.Generate(30000, 2006)
		if err != nil {
			return MethodsResult{}, err
		}
	}
	im, err := src.Sample(n, seed)
	if err != nil {
		return MethodsResult{}, err
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		return MethodsResult{}, err
	}
	res := MethodsResult{Size: n, K: k}

	add := func(name string, masked *table.Table) error {
		m, err := risk.Measure(masked, dataset.QIs())
		if err != nil {
			return err
		}
		mae, exact, err := ageError(im, masked)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, MethodRow{
			Method:        name,
			ProsecutorMax: m.ProsecutorMax,
			MarketerRisk:  m.MarketerRisk,
			AgeMAE:        mae,
			ExactAges:     exact,
		})
		return nil
	}

	if err := add("none (raw)", im); err != nil {
		return MethodsResult{}, err
	}

	sr, err := search.Run(im, search.Config{
		QIs: dataset.QIs(), Confidential: dataset.Confidential(),
		Hierarchies: hs, K: k, P: 1, MaxSuppress: n / 50, UseConditions: true,
	}, search.StrategySamarati)
	if err != nil {
		return MethodsResult{}, err
	}
	if sr.Found {
		if err := add("full-domain generalization", sr.Masked); err != nil {
			return MethodsResult{}, err
		}
	}

	mr, err := search.Mondrian(im, search.MondrianConfig{QIs: dataset.QIs(), K: k, P: 1})
	if err != nil {
		return MethodsResult{}, err
	}
	if err := add("mondrian", mr.Masked); err != nil {
		return MethodsResult{}, err
	}

	micro, err := mask.Microaggregate(im, []string{dataset.Age}, k)
	if err != nil {
		return MethodsResult{}, err
	}
	if err := add("microaggregation (Age)", micro); err != nil {
		return MethodsResult{}, err
	}

	swapped, err := mask.RankSwap(im, dataset.Age, 5, seed)
	if err != nil {
		return MethodsResult{}, err
	}
	if err := add("rank swap (Age, 5%)", swapped); err != nil {
		return MethodsResult{}, err
	}

	noisy, err := mask.AddNoise(im, dataset.Age, 0.25, seed)
	if err != nil {
		return MethodsResult{}, err
	}
	if err := add("noise (Age, 0.25 sd)", noisy); err != nil {
		return MethodsResult{}, err
	}
	return res, nil
}

// ageError measures Age utility: mean absolute error against the
// original and the exactly preserved fraction. Generalized labels are
// decoded to range midpoints.
func ageError(im, mm *table.Table) (mae float64, exact float64, err error) {
	orig, err := im.Column(dataset.Age)
	if err != nil {
		return 0, 0, err
	}
	got, err := mm.Column(dataset.Age)
	if err != nil {
		return 0, 0, err
	}
	n := im.NumRows()
	if mm.NumRows() < n {
		n = mm.NumRows() // suppression shortens the release
	}
	if n == 0 {
		return 0, 0, nil
	}
	sum, hits := 0.0, 0
	for r := 0; r < n; r++ {
		o := orig.Value(r).Float()
		g, ok := decodeAge(got.Value(r).Str())
		if !ok {
			// Fully suppressed label: charge the domain half-range.
			sum += 36.5 // (90-17)/2
			continue
		}
		diff := math.Abs(o - g)
		sum += diff
		if diff == 0 {
			hits++
		}
	}
	return sum / float64(n), float64(hits) / float64(n), nil
}

// decodeAge parses a released Age cell: a plain number, "lo-hi" range,
// "[lo-hi]" range or "<x"/">=x" half-range; "*" is undecodable.
func decodeAge(s string) (float64, bool) {
	if s == "" || s == "*" {
		return 0, false
	}
	if s[0] == '[' && s[len(s)-1] == ']' {
		s = s[1 : len(s)-1]
	}
	if s[0] == '<' {
		v, ok := atofSimple(s[1:])
		return v - 10, ok
	}
	if len(s) > 2 && s[0] == '>' && s[1] == '=' {
		v, ok := atofSimple(s[2:])
		return v + 10, ok
	}
	// Range "lo-hi" (careful: negative ages do not occur).
	for i := 1; i < len(s); i++ {
		if s[i] == '-' {
			lo, ok1 := atofSimple(s[:i])
			hi, ok2 := atofSimple(s[i+1:])
			if ok1 && ok2 {
				return (lo + hi) / 2, true
			}
			return 0, false
		}
	}
	return atofSimple(s)
}

func atofSimple(s string) (float64, bool) {
	v := 0.0
	frac := false
	scale := 0.1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if frac {
				v += float64(c-'0') * scale
				scale /= 10
			} else {
				v = v*10 + float64(c-'0')
			}
		case c == '.' && !frac:
			frac = true
		default:
			return 0, false
		}
	}
	return v, len(s) > 0
}

// Format renders the comparison.
func (r MethodsResult) Format() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Method,
			fmt.Sprintf("%.3f", row.ProsecutorMax),
			fmt.Sprintf("%.3f", row.MarketerRisk),
			fmt.Sprintf("%.2f", row.AgeMAE),
			fmt.Sprintf("%.0f%%", row.ExactAges*100),
		}
	}
	return fmt.Sprintf("Masking methods on Adult n=%d, k=%d (E14):\n%s", r.Size, r.K,
		renderTable([]string{"Method", "Prosecutor max", "Marketer", "Age MAE", "Exact ages"}, rows))
}
