package experiments

import (
	"fmt"
	"strings"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/search"
	"psk/internal/table"
)

// E16: the composite-policy search — one pass of the lattice engine
// targeting a conjunction of properties instead of the paper's single
// p-sensitive k-anonymity check.

// PolicyRow is one strategy's comparison between the legacy
// single-property search and the equivalent composite policy, plus a
// strictly stronger composite.
type PolicyRow struct {
	Strategy string
	// LegacyNode / CompositeNode are the minimal nodes of the built-in
	// p-sensitive k-anonymity search and of the equivalent composite
	// policy (p-sensitivity AND distinct l-diversity with l = p); they
	// must agree, and Identical confirms the masked microdata are
	// byte-identical row for row.
	LegacyNode, CompositeNode string
	Identical                 bool
	// StrictNode is the minimal node once 0.5-closeness on the first
	// confidential attribute is conjoined on top — the search the legacy
	// path cannot express in one pass ("-" when nothing satisfies it).
	StrictNode string
	// StrictScans counts the composite search's detailed group scans.
	StrictScans int
}

// PolicyResult is the E16 study.
type PolicyResult struct {
	Size, K, P int
	Rows       []PolicyRow
}

// RunPolicyComposite drives the policy layer end to end on one Adult
// sample: for Samarati and Incognito it (1) searches with the built-in
// p-sensitive k-anonymity parameters, (2) searches with the equivalent
// composite policy and verifies the masked tables coincide, and (3)
// searches a strictly stronger conjunction (adding 0.5-closeness) the
// single-property path cannot express.
func RunPolicyComposite(n, k, p int, source *table.Table, seed int64) (PolicyResult, error) {
	src := source
	if src == nil {
		var err error
		src, err = dataset.Generate(30000, 2006)
		if err != nil {
			return PolicyResult{}, err
		}
	}
	im, err := src.Sample(n, seed)
	if err != nil {
		return PolicyResult{}, err
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		return PolicyResult{}, err
	}
	conf := dataset.Confidential()
	base := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  conf,
		Hierarchies:   hs,
		K:             k,
		P:             p,
		MaxSuppress:   n / 100,
		UseConditions: true,
	}
	// Distinct l-diversity at l = p on a confidential attribute is
	// implied by p-sensitivity, so this conjunction has exactly the
	// legacy property's solutions.
	equivalent := core.All(
		core.PSensitiveKAnonymityPolicy{P: p, K: k},
		core.DistinctLDiversityPolicy{Attr: conf[0], L: p},
	)
	strict := core.All(
		core.PSensitiveKAnonymityPolicy{P: p, K: k},
		core.TClosenessPolicy{Attr: conf[0], T: 0.5},
	)

	res := PolicyResult{Size: n, K: k, P: p}
	for _, s := range []namedStrategy{
		{"Samarati", search.StrategySamarati},
		{"Incognito", search.StrategyIncognito},
	} {
		run := func(cfg search.Config) (string, *table.Table, search.Stats, error) {
			r, err := search.Run(im, cfg, s.strategy)
			if err != nil || !r.Found {
				return "-", nil, r.Stats, err
			}
			return r.Node.Label(dataset.LatticePrefixes()), r.Masked, r.Stats, nil
		}
		legacyNode, legacyMasked, _, err := run(base)
		if err != nil {
			return PolicyResult{}, err
		}

		cfg := base
		cfg.Policy = equivalent
		compNode, compMasked, _, err := run(cfg)
		if err != nil {
			return PolicyResult{}, err
		}
		identical := legacyNode == compNode && csvString(legacyMasked) == csvString(compMasked)

		cfg.Policy = strict
		strictNode, _, strictStats, err := run(cfg)
		if err != nil {
			return PolicyResult{}, err
		}

		res.Rows = append(res.Rows, PolicyRow{
			Strategy:   s.name,
			LegacyNode: legacyNode, CompositeNode: compNode, Identical: identical,
			StrictNode:  strictNode,
			StrictScans: strictStats.GroupScans,
		})
	}
	return res, nil
}

// csvString renders a masked table for byte-level comparison.
func csvString(t *table.Table) string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	if err := t.WriteCSV(&sb); err != nil {
		return "error: " + err.Error()
	}
	return sb.String()
}

// Format renders the comparison.
func (r PolicyResult) Format() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Strategy, row.LegacyNode, row.CompositeNode,
			fmt.Sprint(row.Identical), row.StrictNode, fmt.Sprint(row.StrictScans),
		}
	}
	return fmt.Sprintf("Composite-policy search on Adult n=%d (%d-sensitive %d-anonymity, E16):\n%s",
		r.Size, r.P, r.K,
		renderTable([]string{"Strategy", "legacy node", "composite node", "identical masked", "+0.5-close node", "scans"}, rows))
}
