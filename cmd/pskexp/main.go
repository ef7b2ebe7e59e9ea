// Command pskexp regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers).
//
// Usage:
//
//	pskexp -exp all
//	pskexp -exp table8 [-adult adult.data] [-ts 0] [-seed 17]
//	pskexp -exp telemetry [-stats] [-metrics-json m.json] [-trace t.jsonl]
//	pskexp -exp attack|table3|figure1|figure2|figure3|table4|example1|table7|ablation|utility
//
// Exit codes: 0 when every requested experiment ran, 1 when one failed,
// 2 when the input layer rejected the invocation (a bad flag, an
// unknown -exp name, -stats/-metrics-json/-trace with an -exp other
// than telemetry or all, an unreadable -adult file).
package main

import (
	"fmt"
	"os"

	"psk/internal/cli"
)

func main() {
	if err := cli.Exp(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pskexp:", err)
		os.Exit(cli.ExitCode(err))
	}
}
