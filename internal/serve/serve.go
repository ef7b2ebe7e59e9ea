package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psk/internal/config"
	"psk/internal/generalize"
	"psk/internal/obs"
	"psk/internal/search"
	"psk/internal/table"
)

// Options parameterize a Server. The zero value is usable: New fills
// every unset field with the default documented on it.
type Options struct {
	// QueueSize bounds the job queue; a full queue rejects submissions
	// with 429 + Retry-After. Default 64.
	QueueSize int
	// Workers is the number of queue workers draining jobs concurrently.
	// Default 2.
	Workers int
	// MaxSearchWorkers caps the per-search engine worker pool a request
	// may ask for (requests asking for more, or for 0, get this many).
	// Default 1 — the serial, deterministic evaluation path.
	MaxSearchWorkers int
	// MaxBudget caps per-request budgets field by field; zero fields are
	// uncapped. Default: 30s deadline cap, nodes and memory uncapped.
	MaxBudget search.Budget
	// ResultCacheEntries bounds the completed-execution cache (LRU).
	// Default 128.
	ResultCacheEntries int
	// DatasetCacheEntries bounds the shared dataset cache (LRU over
	// parsed tables and their hierarchies). Default 8.
	DatasetCacheEntries int
	// RetryAfter is the hint returned with 429/503. Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds a request body. Default 64 MiB.
	MaxBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxSearchWorkers <= 0 {
		o.MaxSearchWorkers = 1
	}
	if o.MaxSearchWorkers > runtime.GOMAXPROCS(0) {
		o.MaxSearchWorkers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBudget == (search.Budget{}) {
		o.MaxBudget = search.Budget{Deadline: 30 * time.Second}
	}
	if o.ResultCacheEntries <= 0 {
		o.ResultCacheEntries = 128
	}
	if o.DatasetCacheEntries <= 0 {
		o.DatasetCacheEntries = 8
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	return o
}

// stats are the service-level counters /metrics exports. All atomic —
// handlers and workers bump them without the server lock.
type stats struct {
	submitted         atomic.Int64
	accepted          atomic.Int64
	coalesced         atomic.Int64
	cacheHits         atomic.Int64
	searches          atomic.Int64
	rejectedInput     atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedDraining  atomic.Int64
	cancelled         atomic.Int64
	// datasetParses counts the CSV payloads the service parsed: one per
	// dataset-cache miss, per check job built and per attack table.
	datasetParses atomic.Int64
}

// ServiceMetrics is the GET /metrics payload: queue occupancy, job
// states and the service counters. The single-flight and cache
// behaviour the tests pin (one underlying search for N identical
// submissions) is read off Counters.
type ServiceMetrics struct {
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Jobs     map[string]int   `json:"jobs"`
	Counters map[string]int64 `json:"counters"`
	Caches   struct {
		Results  int `json:"results"`
		Datasets int `json:"datasets"`
	} `json:"caches"`
}

// job is one submitted request: a public id bound to the (possibly
// shared) execution that computes its answer, whose kind and key are
// the job's. seq is the submission order the id is formatted from.
type job struct {
	id        string
	seq       int64
	exec      *execution
	coalesced bool
	cached    bool
	cancelled atomic.Bool
}

// state derives the job's lifecycle state for status payloads.
func (j *job) state() string {
	if j.cancelled.Load() {
		return "cancelled"
	}
	ex := j.exec
	if !ex.finished() {
		if ex.started.Load() {
			return "running"
		}
		return "queued"
	}
	if ex.err != nil {
		return "failed"
	}
	if ex.stop == search.StopCancelled {
		return "cancelled"
	}
	return "done"
}

// Server is the anonymization service. Build one with New, mount
// Handler on an http.Server, Close to drain.
type Server struct {
	opt   Options
	mux   *http.ServeMux
	queue chan *execution
	wg    sync.WaitGroup
	stats stats

	mu       sync.Mutex
	draining bool
	nextID   int64
	jobs     map[string]*job
	// execs holds in-flight and cached-completed executions by content
	// key; resultLRU orders the completed ones for eviction. bodies
	// indexes each of them by the digest of the body that created it,
	// and loses the entry whenever the execution leaves execs, so
	// len(bodies) <= len(execs).
	execs     map[Key]*execution
	resultLRU []Key
	bodies    map[[sha256.Size]byte]*execution
	// datasets is the shared (dataset, hierarchy) cache; datasetLRU
	// orders it for eviction.
	datasets   map[[2]string]*sharedData
	datasetLRU [][2]string
}

// New builds a Server and starts its queue workers.
func New(opt Options) *Server {
	s := &Server{
		opt:      opt.withDefaults(),
		jobs:     make(map[string]*job),
		execs:    make(map[Key]*execution),
		bodies:   make(map[[sha256.Size]byte]*execution),
		datasets: make(map[[2]string]*sharedData),
	}
	s.queue = make(chan *execution, s.opt.QueueSize)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/{sub...}", s.handleJobObs)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /progress", s.handleProgress)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for i := 0; i < s.opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the service: new submissions get 503, queued executions
// are cancelled without touching the engine, running searches are
// interrupted through their contexts, and Close returns once every
// worker has finished. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	close(s.queue)
	for _, ex := range s.execs {
		if !ex.finished() {
			ex.cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for ex := range s.queue {
		s.runExecution(ex)
	}
}

func (s *Server) runExecution(ex *execution) {
	if ex.ctx.Err() != nil {
		// Every attached job was cancelled (or the server drained) while
		// the execution sat in the queue: it never touches the engine.
		s.finishExecution(ex, nil, search.StopCancelled, nil)
		return
	}
	ex.started.Store(true)
	s.stats.searches.Add(1)
	res, stop, err := ex.run(ex.ctx, ex.rec)
	if err == nil && ex.ctx.Err() != nil && stop == search.StopDone {
		// A cancel that landed after the engine finished its last node
		// still reports as cancelled — the client asked for no result.
		stop = search.StopCancelled
	}
	s.finishExecution(ex, res, stop, err)
}

func (s *Server) finishExecution(ex *execution, res *JobResult, stop search.StopReason, err error) {
	ex.finish(res, stop, err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ex.cacheable() || s.execs[ex.key] != ex {
		// Errors and partial results are never replayed; forget the
		// execution so an identical future request runs fresh. (Jobs
		// keep their direct pointer — status reads are unaffected.) An
		// execution a newer one replaced in execs is no longer indexed.
		s.forget(ex)
		return
	}
	s.resultLRU = append(s.resultLRU, ex.key)
	for len(s.resultLRU) > s.opt.ResultCacheEntries {
		victim := s.resultLRU[0]
		s.resultLRU = s.resultLRU[1:]
		if old := s.execs[victim]; old != nil && old.finished() {
			s.forget(old)
		}
	}
}

// forget drops ex from the key and digest indexes, leaving any entry
// that already names a newer execution. Caller holds s.mu.
func (s *Server) forget(ex *execution) {
	if s.execs[ex.key] == ex {
		delete(s.execs, ex.key)
	}
	if s.bodies[ex.body] == ex {
		delete(s.bodies, ex.body)
	}
}

// sharedDataset resolves (or builds and caches) the shared entry for a
// search request: the parsed typed table and the hierarchies. It builds
// a masker only so that a QI without a hierarchy fails at submit. The
// parse runs outside the server lock; a submit race builds the entry
// twice and the second insert wins — wasted work, never wrong results.
func (s *Server) sharedDataset(key Key, rawCSV string, job *config.Job) (*sharedData, error) {
	dk := [2]string{key.Dataset, key.Hierarchy}
	s.mu.Lock()
	if sd := s.datasets[dk]; sd != nil {
		s.touchDataset(dk)
		s.mu.Unlock()
		return sd, nil
	}
	s.mu.Unlock()

	s.stats.datasetParses.Add(1)
	tbl, err := table.ReadCSVWith(strings.NewReader(rawCSV), job.Schema)
	if err != nil {
		return nil, inputError{err}
	}
	hiers, err := job.BuildHierarchies()
	if err != nil {
		return nil, inputError{err}
	}
	if _, err := generalize.NewMasker(job.QuasiIdentifiers, hiers); err != nil {
		return nil, inputError{err}
	}
	sd := &sharedData{tbl: tbl, hiers: hiers}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prior := s.datasets[dk]; prior != nil {
		return prior, nil
	}
	s.datasets[dk] = sd
	s.datasetLRU = append(s.datasetLRU, dk)
	for len(s.datasetLRU) > s.opt.DatasetCacheEntries {
		victim := s.datasetLRU[0]
		s.datasetLRU = s.datasetLRU[1:]
		delete(s.datasets, victim)
	}
	return sd, nil
}

func (s *Server) touchDataset(dk [2]string) {
	for i, k := range s.datasetLRU {
		if k == dk {
			s.datasetLRU = append(append(s.datasetLRU[:i:i], s.datasetLRU[i+1:]...), dk)
			return
		}
	}
}

// --- HTTP handlers ---

// submitResponse is the 202 body of POST /v1/jobs.
type submitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Location string `json:"location"`
	// Coalesced: the job attached to an identical in-flight execution;
	// Cached: to an already-completed one. Either way no new search runs.
	Coalesced bool `json:"coalesced"`
	Cached    bool `json:"cached"`
	Key       Key  `json:"key"`
}

// statusResponse is the GET /v1/jobs/{id} body.
type statusResponse struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	State     string `json:"state"`
	Coalesced bool   `json:"coalesced"`
	Cached    bool   `json:"cached"`
	Key       Key    `json:"key"`
	// ExitCode and StopReason are set once the job finished.
	ExitCode   *int       `json:"exit_code,omitempty"`
	StopReason string     `json:"stop_reason,omitempty"`
	Error      string     `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
	// Report is the job's final obs report — the same document
	// GET /v1/jobs/{id}/metrics serves byte for byte.
	Report *obs.Report `json:"report,omitempty"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]string{"error": msg}) //nolint:errcheck // best-effort error body
}

// A submit's body buffer follows the bytes that have arrived. It starts
// at no more than firstBodyChunk; once that much has arrived it grows to
// the declared Content-Length, capped at maxBodyReserve, and past the
// cap it grows as the bytes arrive. A client that declares a large body
// and then stalls pins firstBodyChunk, not its declared length.
const (
	firstBodyChunk = 16 << 10
	maxBodyReserve = 1 << 20
)

// readBody reads a request body into one buffer: a first chunk, then the
// rest of its declared length in one reservation, with room for the read
// that meets its end.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 {
		buf.Grow(int(min(declared, firstBodyChunk)) + bytes.MinRead)
		n, err := io.CopyN(&buf, r, firstBodyChunk)
		if err == io.EOF {
			return buf.Bytes(), nil
		}
		if err != nil {
			return nil, err
		}
		if rest := min(declared, maxBodyReserve) - n; rest > 0 {
			buf.Grow(int(rest) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// idleReader reads r with a read deadline obs.ReadHeaderTimeout after
// each Read starts, so a request body is cut off only where it stalls.
type idleReader struct {
	r  io.Reader
	rc *http.ResponseController
}

func (ir idleReader) Read(p []byte) (int, error) {
	_ = ir.rc.SetReadDeadline(time.Now().Add(obs.ReadHeaderTimeout))
	return ir.r.Read(p)
}

// handleSubmit answers POST /v1/jobs. A body byte-identical to the one
// that created a cached or in-flight execution is answered from its
// SHA-256, undecoded. Any other body is decoded and prepared, and then
// attaches to the execution of its key or queues a new one.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.submitted.Add(1)
	// A client that sends nothing of its body for the time a client has
	// to send its headers is cut off; a body that keeps arriving is read
	// however long it takes. The deadline is this read's alone: a
	// server-wide ReadTimeout would also fail net/http's background read
	// while the handler runs, which cancels the request's context. A
	// writer with no connection beneath it, such as a test recorder, has
	// no deadline to set, and its body is read without one.
	rc := http.NewResponseController(w)
	body, err := readBody(idleReader{http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes), rc}, r.ContentLength)
	_ = rc.SetReadDeadline(time.Time{})
	if err != nil {
		s.rejectInput(w, "bad request body: "+err.Error())
		return
	}
	sum := sha256.Sum256(body)
	if s.admit(w, func() *execution { return s.bodies[sum] }, nil) {
		return
	}
	// Unmarshal, unlike a json.Decoder, refuses bytes after the value, so
	// the digest covers exactly the bytes that were validated.
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.rejectInput(w, "bad request body: "+err.Error())
		return
	}
	key, run, err := s.prepare(&req)
	if err != nil {
		s.rejectInput(w, err.Error())
		return
	}
	ex := newExecution(key, req.Kind, run)
	ex.body = sum
	s.admit(w, func() *execution { return s.execs[key] }, ex)
}

func (s *Server) rejectInput(w http.ResponseWriter, msg string) {
	s.stats.rejectedInput.Add(1)
	writeError(w, http.StatusBadRequest, msg)
}

// admit answers a submit under s.mu: 503 while the server drains;
// otherwise a job attached to the execution find returns, if that can
// still answer it (see attach); otherwise a job on fresh, queued and
// indexed in place of the one find returned (429 when the queue is
// full). Given no fresh execution, a miss answers nothing and admit
// reports false, so the caller goes on to decode the body.
func (s *Server) admit(w http.ResponseWriter, find func() *execution, fresh *execution) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.stats.rejectedDraining.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.opt.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return true
	}
	old := find()
	j := s.attach(old)
	if j != nil && fresh != nil {
		fresh.cancel() // the key already has an execution that answers it
	}
	if j == nil && fresh != nil {
		fresh.refs.Add(1)
		select {
		case s.queue <- fresh:
		default:
			s.mu.Unlock()
			fresh.cancel()
			s.stats.rejectedQueueFull.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(s.opt.RetryAfter))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("job queue full (%d pending); retry later", s.opt.QueueSize))
			return true
		}
		if old != nil {
			s.forget(old)
		}
		s.execs[fresh.key] = fresh
		s.bodies[fresh.body] = fresh
		j = &job{exec: fresh}
	}
	if j == nil {
		s.mu.Unlock()
		return false
	}
	s.nextID++
	j.seq = s.nextID
	j.id = fmt.Sprintf("j-%06d", j.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()

	s.stats.accepted.Add(1)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	obs.WriteJSON(noStatusWriter{w}, submitResponse{
		ID: j.id, State: j.state(), Location: "/v1/jobs/" + j.id,
		Coalesced: j.coalesced, Cached: j.cached, Key: j.exec.key,
	})
	return true
}

// attach binds a new job to ex (single-flight) if ex can still answer
// it: a finished execution only with a cacheable outcome, an in-flight
// one only while a job still waits on it. A failed, partial or
// cancelled execution answers no one new, even in the moment before its
// worker drops it from the indexes. Caller holds s.mu.
func (s *Server) attach(ex *execution) *job {
	switch {
	case ex == nil:
		return nil
	case ex.finished():
		if !ex.cacheable() {
			return nil
		}
		s.stats.cacheHits.Add(1)
		s.touchResult(ex.key)
		return &job{exec: ex, cached: true}
	case ex.join():
		s.stats.coalesced.Add(1)
		return &job{exec: ex, coalesced: true}
	}
	return nil
}

// touchResult moves a cached key to the LRU back. Caller holds s.mu.
func (s *Server) touchResult(key Key) {
	for i, k := range s.resultLRU {
		if k == key {
			s.resultLRU = append(append(s.resultLRU[:i:i], s.resultLRU[i+1:]...), key)
			return
		}
	}
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	resp := statusResponse{
		ID: j.id, Kind: j.exec.kind, State: j.state(),
		Coalesced: j.coalesced, Cached: j.cached, Key: j.exec.key,
	}
	status := http.StatusOK
	ex := j.exec
	if ex.finished() {
		resp.StopReason = ex.stop.String()
		if !j.cancelled.Load() {
			exit := ex.exit
			resp.ExitCode = &exit
			resp.Result = ex.result
			resp.Report = ex.report
			if ex.err != nil {
				resp.Error = ex.err.Error()
			}
			status = HTTPStatus(ex.exit)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	obs.WriteJSON(noStatusWriter{w}, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	ex := j.exec
	if ex.finished() || j.cached {
		writeError(w, http.StatusConflict, "job already finished")
		return
	}
	if j.cancelled.Swap(true) {
		writeError(w, http.StatusConflict, "job already cancelled")
		return
	}
	s.stats.cancelled.Add(1)
	if ex.refs.Add(-1) == 0 {
		// Last attached job gone: stop the underlying search. The engine
		// returns its best-so-far partial tagged StopCancelled.
		ex.cancel()
	}
	w.WriteHeader(http.StatusOK)
	obs.WriteJSON(noStatusWriter{w}, map[string]string{"id": j.id, "state": j.state()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type item struct {
		seq   int64
		ID    string `json:"id"`
		Kind  string `json:"kind"`
		State string `json:"state"`
	}
	items := make([]item, 0, len(s.jobs))
	for _, j := range s.jobs {
		items = append(items, item{seq: j.seq, ID: j.id, Kind: j.exec.kind, State: j.state()})
	}
	s.mu.Unlock()
	// Submission order: the ids' zero padding runs out past j-999999.
	sort.Slice(items, func(a, b int) bool { return items[a].seq < items[b].seq })
	obs.WriteJSON(w, map[string]any{"jobs": items})
}

// handleJobObs mounts the per-job observatory: /v1/jobs/{id}/metrics,
// /progress, /healthz and /debug/pprof/* are the exact obs.Server
// endpoints, served by the job's execution view. Before the job
// finishes, /metrics snapshots the live recorder; after, it serves the
// frozen final report.
func (s *Server) handleJobObs(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	sub := r.PathValue("sub")
	switch {
	case sub == "metrics", sub == "progress", sub == "healthz",
		strings.HasPrefix(sub, "debug/pprof"):
	default:
		writeError(w, http.StatusNotFound, "no such endpoint")
		return
	}
	r2 := new(http.Request)
	*r2 = *r
	r2.URL = new(url.URL)
	*r2.URL = *r.URL
	r2.URL.Path = "/" + sub
	j.exec.view.ServeHTTP(w, r2)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m ServiceMetrics
	m.Queue.Depth = len(s.queue)
	m.Queue.Capacity = s.opt.QueueSize
	m.Jobs = map[string]int{"queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0}
	s.mu.Lock()
	for _, j := range s.jobs {
		m.Jobs[j.state()]++
	}
	m.Caches.Results = len(s.resultLRU)
	m.Caches.Datasets = len(s.datasets)
	s.mu.Unlock()
	m.Counters = map[string]int64{
		"submitted":           s.stats.submitted.Load(),
		"accepted":            s.stats.accepted.Load(),
		"coalesced":           s.stats.coalesced.Load(),
		"cache_hits":          s.stats.cacheHits.Load(),
		"searches":            s.stats.searches.Load(),
		"cancelled":           s.stats.cancelled.Load(),
		"rejected_input":      s.stats.rejectedInput.Load(),
		"rejected_queue_full": s.stats.rejectedQueueFull.Load(),
		"rejected_draining":   s.stats.rejectedDraining.Load(),
		"dataset_parses":      s.stats.datasetParses.Load(),
	}
	obs.WriteJSON(w, m)
}

// progressPayload is the GET /progress body: per-running-job engine
// gauges, the service-level twin of obs.Server's /progress.
type progressPayload struct {
	State string `json:"state"`
	Jobs  []struct {
		ID       string       `json:"id"`
		Kind     string       `json:"kind"`
		Progress obs.Progress `json:"progress"`
	} `json:"jobs"`
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	p := progressPayload{State: s.state()}
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.state() != "running" {
			continue
		}
		p.Jobs = append(p.Jobs, struct {
			ID       string       `json:"id"`
			Kind     string       `json:"kind"`
			Progress obs.Progress `json:"progress"`
		}{j.id, j.exec.kind, j.exec.rec.Progress()})
	}
	s.mu.Unlock()
	obs.WriteJSON(w, p)
}

func (s *Server) state() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "draining"
	}
	return "serving"
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, map[string]string{"status": "ok", "state": s.state()})
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// noStatusWriter suppresses duplicate WriteHeader calls from helpers
// that write after the handler already committed a status code.
type noStatusWriter struct{ http.ResponseWriter }

func (noStatusWriter) WriteHeader(int) {}
