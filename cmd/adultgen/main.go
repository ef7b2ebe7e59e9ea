// Command adultgen emits the synthetic Adult census microdata used by
// the experiment harness (see DESIGN.md for the substitution rationale:
// the reproduction environment is offline, so the UCI file is replaced
// by a generator matching its published marginal distributions).
//
// Usage:
//
//	adultgen -n 4000 -seed 2006 -out adult.csv
//	adultgen -scale 20 -seed 2006 -out adult_1m.csv   # 48,842-row shape x 20
//
// Exit codes: 0 when the data was written, 1 when generating or writing
// it failed, 2 when the input layer rejected the invocation (a bad
// flag).
package main

import (
	"fmt"
	"os"

	"psk/internal/cli"
)

func main() {
	if err := cli.Gen(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "adultgen:", err)
		os.Exit(cli.ExitCode(err))
	}
}
