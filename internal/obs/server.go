package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Server is the live observatory: a stdlib-only net/http debug server
// exposing a running search's telemetry while it is in flight —
// exactly when a multi-hour 10M-row run needs visibility and the
// post-hoc Report does not exist yet. Endpoints:
//
//	/metrics  — the current Report snapshot as JSON (the same shape
//	            -metrics-json writes); after Finalize it serves the
//	            frozen final report byte-for-byte
//	/progress — the Progress gauges plus the Sampler's time-series ring
//	/healthz  — {"status":"ok","state":"running"|"done"}
//	/debug/pprof/* — the standard runtime profiles; combined with the
//	            engine's pprof worker labels, CPU samples attribute to
//	            (strategy, phase, worker)
//
// The server never touches search structures: every handler reads
// atomic gauges or snapshots the Recorder, so attaching one cannot
// change a result byte. Lifecycle: NewServer binds and serves
// immediately; Finalize freezes the /metrics payload; WaitScraped lets
// a CLI linger until a scraper has read the final report; Close shuts
// the listener down.
//
// A Server is also an http.Handler: NewHandler builds one without a
// listener, which is how cmd/pskserve mounts the same endpoints —
// per-job, under /v1/jobs/{id}/ — on the service's own mux.
type Server struct {
	rec     *Recorder
	sampler *Sampler
	mux     *http.ServeMux
	ln      net.Listener
	srv     *http.Server
	start   time.Time

	final       atomic.Pointer[Report]
	scraped     chan struct{}
	scrapedOnce sync.Once
}

// Connection timeouts of the module's HTTP listeners: the observatory's
// and pskserve's. A client that has not sent its request headers within
// ReadHeaderTimeout, or leaves a keep-alive connection idle for
// IdleTimeout, is disconnected, so slow or abandoned clients cannot
// hold connections and their goroutines forever. There is deliberately
// no write timeout: /debug/pprof/profile streams for as long as its
// seconds parameter asks.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHandler builds the observatory's endpoints over rec without
// binding a listener; mount the returned Server on an external mux
// (it implements http.Handler, routing /metrics, /progress, /healthz
// and /debug/pprof relative to its mount point via http.StripPrefix).
// rec may not be nil; sampler may be nil (then /progress carries no
// samples). Finalize, Finalized and WaitScraped work exactly as on a
// listening server; Close is a no-op.
func NewHandler(rec *Recorder, sampler *Sampler) (*Server, error) {
	if rec == nil {
		return nil, fmt.Errorf("obs: server requires a recorder")
	}
	s := &Server{
		rec:     rec,
		sampler: sampler,
		start:   time.Now(),
		scraped: make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/progress", s.handleProgress)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// NewServer binds addr (e.g. "127.0.0.1:6060", ":0" for an ephemeral
// port) and starts serving in a background goroutine. rec may not be
// nil — a server without a recorder has nothing to say. sampler may be
// nil (then /progress carries no samples).
func NewServer(addr string, rec *Recorder, sampler *Sampler) (*Server, error) {
	s, err := NewHandler(rec, sampler)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// ServeHTTP routes a request through the observatory's mux, making a
// Server mountable on an external http.ServeMux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Addr returns the bound listen address (useful with ":0"); empty for
// a NewHandler server, which never listens.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Finalize freezes the /metrics payload to rep — the exact report the
// CLI wrote to -metrics-json, so a scrape after completion and the
// file agree byte for byte. The /healthz state flips to "done".
func (s *Server) Finalize(rep *Report) {
	if rep != nil {
		s.final.Store(rep)
	}
}

// Finalized reports whether Finalize has been called.
func (s *Server) Finalized() bool { return s.final.Load() != nil }

// WaitScraped blocks until a /metrics request has been served after
// Finalize, or the timeout elapses — the linger a CLI uses so an
// external poller deterministically observes the final report before
// the process exits. Returns true when a scrape happened.
func (s *Server) WaitScraped(timeout time.Duration) bool {
	if timeout <= 0 {
		return false
	}
	select {
	case <-s.scraped:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close shuts the listener down: no new connections are accepted, and
// requests in flight get up to a second to finish before their
// connections are closed. The scrape that released WaitScraped is one
// of them — its handler has not returned yet — so an abrupt close would
// drop the final report it was serving. A NewHandler server has no
// listener; Close is then a no-op.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) state() string {
	if s.Finalized() {
		return "done"
	}
	return "running"
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.final.Load()
	done := rep != nil
	if rep == nil {
		rep = s.rec.Snapshot()
	}
	WriteJSON(w, rep)
	if done {
		s.scrapedOnce.Do(func() { close(s.scraped) })
	}
}

// progressPayload is the /progress response body.
type progressPayload struct {
	State string `json:"state"`
	// UptimeNs is the server's age, the scrape-side clock.
	UptimeNs int64    `json:"uptime_ns"`
	Progress Progress `json:"progress"`
	// SampleIntervalNs and SamplesTaken describe the ring: SamplesTaken
	// may exceed len(Samples) once the ring has wrapped.
	SampleIntervalNs int64    `json:"sample_interval_ns,omitempty"`
	SamplesTaken     int      `json:"samples_taken"`
	Samples          []Sample `json:"samples,omitempty"`
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, progressPayload{
		State:            s.state(),
		UptimeNs:         time.Since(s.start).Nanoseconds(),
		Progress:         s.rec.Progress(),
		SampleIntervalNs: s.sampler.Interval().Nanoseconds(),
		SamplesTaken:     s.sampler.Total(),
		Samples:          s.sampler.Samples(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, map[string]string{"status": "ok", "state": s.state()})
}

// WriteJSON writes v with the CLI's -metrics-json encoder settings
// (two-space indent, trailing newline) so scrapes, files and service
// responses compare byte for byte. Exported for cmd/pskserve, whose
// job-result payloads embed Reports under the same contract.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
