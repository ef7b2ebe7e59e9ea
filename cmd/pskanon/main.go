// Command pskanon anonymizes a CSV file to p-sensitive k-anonymity
// using full-domain generalization with suppression (the paper's
// Algorithm 3) and writes the masked microdata plus a report.
//
// Usage:
//
//	pskanon -in data.csv -job job.json -out masked.csv [-algorithm samarati]
//	pskanon -in data.csv -job job.json -ldiv 2 -tclose 0.4 -out masked.csv
//
// The job file (see internal/config) names the quasi-identifiers,
// confidential attributes, k, p, the suppression threshold, and the
// generalization hierarchy for every quasi-identifier. The -ldiv,
// -tclose and -alpha flags conjoin extra properties onto the search
// target (distinct l-diversity, t-closeness, the (p, alpha) frequency
// cap), making every strategy look for the composite in one pass.
// The -timeout and -max-nodes flags bound the search; when a budget
// trips, the best generalization found so far is released with a
// warning on stderr.
//
// Exit codes: 0 when a satisfying generalization was released, 1 when
// none exists within the suppression budget (a verdict), 2 when the
// input layer rejected the invocation (a bad or missing flag, missing
// file, malformed CSV, invalid job config) before any search ran.
package main

import (
	"fmt"
	"os"

	"psk/internal/cli"
)

func main() {
	if err := cli.Anon(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pskanon:", err)
		os.Exit(cli.ExitCode(err))
	}
}
