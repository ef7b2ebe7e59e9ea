// Command pskserve is anonymization-as-a-service: an async job server
// over the p-sensitive k-anonymity engine. Check, anonymize, frontier
// and attack run as jobs — POST /v1/jobs returns a job id, GET
// /v1/jobs/{id} polls status and result, DELETE cancels the underlying
// search through its context.
//
// Usage:
//
//	pskserve -addr 127.0.0.1:8787 -queue 64 -workers 2 -max-timeout 30s
//
// The service applies the CLI exit-code convention to HTTP statuses
// (verdicts — positive or negative — are 200, input errors 400),
// backpressures with 429 + Retry-After when the queue is full, dedups
// identical in-flight requests (single-flight), caches completed
// results by content key, and shares one generalized-column cache
// across concurrent searches over the same dataset. Each job exposes
// the live observatory under /v1/jobs/{id}/ (metrics, progress,
// healthz, debug/pprof); service-level /metrics, /progress, /healthz
// and /debug/pprof cover the queue and caches.
//
// Exit codes: 0 on clean shutdown (SIGINT/SIGTERM drains), 2 when a
// flag was bad or the listener could not bind.
package main

import (
	"fmt"
	"os"

	"psk/internal/cli"
)

func main() {
	if err := cli.Serve(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pskserve:", err)
		os.Exit(cli.ExitCode(err))
	}
}
