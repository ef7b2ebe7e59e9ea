// Package psk implements the p-sensitive k-anonymity privacy model of
// Truta and Vinay (ICDE 2006 Workshops, "Privacy Protection: p-Sensitive
// k-Anonymity Property") as a production-quality Go library.
//
// A masked microdata satisfies p-sensitive k-anonymity when every
// combination of quasi-identifier values occurs at least k times
// (k-anonymity, protecting against identity disclosure) and every such
// group contains at least p distinct values of each confidential
// attribute (p-sensitivity, protecting against attribute disclosure).
//
// The package exposes:
//
//   - property checks: IsKAnonymous, IsPSensitiveKAnonymous (the paper's
//     Algorithm 2, with the two necessary conditions as fast rejection
//     filters), CheckBasic (Algorithm 1), Sensitivity and
//     AttributeDisclosures;
//   - the necessary-condition bounds MaxP and MaxGroups (Conditions 1-2,
//     reusable across maskings per Theorems 1-2);
//   - Anonymize: full-domain generalization with suppression, searching
//     the generalization lattice for a p-k-minimal node with Samarati's
//     binary search (Algorithm 3), a bottom-up breadth-first scan, an
//     exhaustive enumeration of all minimal nodes, predictive tagging
//     (AllMinimal) or Incognito's subset pruning (Config.Algorithm);
//   - Mondrian: a multidimensional partitioning baseline with the same
//     k and p guarantees;
//   - hierarchy construction (interval, tree, prefix, flat), CSV input/
//     output, a SQL subset for inspection queries, disclosure-risk
//     linkage attacks and information-loss metrics.
//
// # Quick start
//
//	data, err := psk.ReadCSVFile("patients.csv", &schema)
//	...
//	res, err := psk.Anonymize(data, psk.Config{
//		QuasiIdentifiers: []string{"Age", "ZipCode", "Sex"},
//		Confidential:     []string{"Illness"},
//		Hierarchies:      hierarchies,
//		K:                3,
//		P:                2,
//		MaxSuppress:      10,
//	})
//	if res.Found {
//		res.Masked.WriteCSVFile("patients_masked.csv")
//	}
//
// The runnable programs under examples/ and cmd/ exercise the complete
// API; DESIGN.md maps every module to the paper section it implements,
// and EXPERIMENTS.md records the reproduction of each table and figure.
package psk
