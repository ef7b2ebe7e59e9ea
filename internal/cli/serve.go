package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"psk/internal/obs"
	"psk/internal/search"
	"psk/internal/serve"
)

// Serve implements pskserve: run the anonymization service until
// SIGINT/SIGTERM, then drain. The network-facing behaviour lives in
// internal/serve; this entry point only parses flags, binds the
// listener and wires signals.
func Serve(args []string, stdout, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return ServeContext(ctx, args, stdout, stderr)
}

// ServeContext is Serve with an explicit lifetime: the server drains
// and returns when ctx is cancelled. Split out so tests can run the
// whole binary path in-process and stop it deterministically.
func ServeContext(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pskserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8787", "listen address (use :0 for an ephemeral port)")
		queue         = fs.Int("queue", 0, "job queue capacity; a full queue answers 429 + Retry-After (0 = default 64)")
		workers       = fs.Int("workers", 0, "queue workers draining jobs concurrently (0 = default 2)")
		searchWorkers = fs.Int("search-workers", 0, "per-search engine worker cap (0 = default 1, the serial deterministic path)")
		maxTimeout    = fs.Duration("max-timeout", 30*time.Second, "server-side cap on per-request wall-clock budgets (0 = uncapped)")
		maxNodes      = fs.Int64("max-nodes", 0, "server-side cap on per-request lattice-node budgets (0 = uncapped)")
		maxCacheMB    = fs.Int64("max-cache-mb", 0, "server-side cap on per-request cache-memory budgets, in MiB (0 = uncapped)")
		results       = fs.Int("results", 0, "result cache entries, LRU (0 = default 128)")
		datasets      = fs.Int("datasets", 0, "shared dataset cache entries, LRU (0 = default 8)")
		retryAfter    = fs.Duration("retry-after", time.Second, "Retry-After hint returned with 429/503")
	)
	if err := fs.Parse(args); err != nil {
		return inputErr(err)
	}
	srv := serve.New(serve.Options{
		QueueSize:        *queue,
		Workers:          *workers,
		MaxSearchWorkers: *searchWorkers,
		MaxBudget: search.Budget{
			Deadline:      *maxTimeout,
			MaxNodes:      *maxNodes,
			MaxCacheBytes: *maxCacheMB << 20,
		},
		ResultCacheEntries:  *results,
		DatasetCacheEntries: *datasets,
		RetryAfter:          *retryAfter,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return inputErr(err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: obs.ReadHeaderTimeout, IdleTimeout: obs.IdleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "pskserve: listening on http://%s (POST /v1/jobs; /metrics /progress /healthz /debug/pprof)\n",
		ln.Addr())

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "pskserve: draining\n")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	return srv.Close()
}
