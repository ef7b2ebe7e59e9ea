// Command pskattack simulates the paper's record-linkage intruder
// (Section 2, Tables 1-2): it joins an identified external CSV against
// a masked release on the key attributes and reports identity and
// attribute disclosure.
//
// Usage:
//
//	pskattack -masked masked.csv -external voters.csv -id Name \
//	          -qi Age,ZipCode,Sex -conf Illness [-leaks]
//
// Exit codes: 0 when the attack ran, 1 when it failed, 2 when the input
// layer rejected the invocation (a bad or missing flag, an unreadable
// input file) before any linkage ran.
package main

import (
	"fmt"
	"os"

	"psk/internal/cli"
)

func main() {
	if err := cli.Attack(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pskattack:", err)
		os.Exit(cli.ExitCode(err))
	}
}
