// Command pskcheck verifies privacy properties of a (masked) CSV file:
// k-anonymity, p-sensitive k-anonymity (with the paper's necessary
// conditions reported), the achievable sensitivity, re-identification
// risk and attribute disclosure counts. It can also run ad-hoc SQL
// against the file, since the paper defines its checks in SQL.
//
// The -ldiv, -tclose and -alpha flags conjoin extra properties onto
// the p-sensitive k-anonymity target (distinct l-diversity,
// t-closeness, and the (p, alpha) frequency cap, per confidential
// attribute); when any is given, pskcheck evaluates the composite
// policy and exits with a non-zero status if it is violated, so
// release pipelines can gate on `pskcheck ... && publish`.
//
// Exit codes: 0 when the checks ran and every requested property held,
// 1 when a property was violated (a verdict), 2 when the input layer
// rejected the invocation (a bad or missing flag, missing file,
// malformed CSV) before any check ran.
//
// Usage:
//
//	pskcheck -in masked.csv -qi Age,ZipCode,Sex -conf Illness -k 3 -p 2 [-violations]
//	pskcheck -in masked.csv -qi Age,ZipCode,Sex -conf Illness -k 3 -p 2 -ldiv 2 -tclose 0.4
//	pskcheck -in masked.csv -sql "SELECT COUNT(*) FROM T GROUP BY Sex"
package main

import (
	"fmt"
	"os"

	"psk/internal/cli"
)

func main() {
	if err := cli.Check(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pskcheck:", err)
		os.Exit(cli.ExitCode(err))
	}
}
