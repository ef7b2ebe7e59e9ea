package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
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
// shared) execution that computes its answer.
type job struct {
	id        string
	kind      string
	key       Key
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
	// key; resultLRU orders the completed ones for eviction.
	execs     map[Key]*execution
	resultLRU []Key
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
	if !ex.cacheable() {
		// Errors and partial results are never replayed; forget the
		// execution so an identical future request runs fresh. (Jobs
		// keep their direct pointer — status reads are unaffected.)
		if s.execs[ex.key] == ex {
			delete(s.execs, ex.key)
		}
		return
	}
	s.resultLRU = append(s.resultLRU, ex.key)
	for len(s.resultLRU) > s.opt.ResultCacheEntries {
		victim := s.resultLRU[0]
		s.resultLRU = s.resultLRU[1:]
		if old := s.execs[victim]; old != nil && old.finished() {
			delete(s.execs, victim)
		}
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.submitted.Add(1)
	var req JobRequest
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.stats.rejectedInput.Add(1)
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	key, run, _, err := s.prepare(&req)
	if err != nil {
		s.stats.rejectedInput.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.stats.rejectedDraining.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.opt.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	j := &job{kind: req.Kind, key: key}
	if ex := s.execs[key]; ex != nil {
		// Single-flight: an identical computation is in flight or cached.
		j.exec = ex
		if ex.finished() {
			j.cached = true
			s.stats.cacheHits.Add(1)
			s.touchResult(key)
		} else {
			j.coalesced = true
			ex.refs.Add(1)
			s.stats.coalesced.Add(1)
		}
	} else {
		ex := newExecution(key, req.Kind, run)
		select {
		case s.queue <- ex:
			ex.refs.Add(1)
			j.exec = ex
			s.execs[key] = ex
		default:
			s.mu.Unlock()
			ex.cancel()
			s.stats.rejectedQueueFull.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(s.opt.RetryAfter))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("job queue full (%d pending); retry later", s.opt.QueueSize))
			return
		}
	}
	s.nextID++
	j.id = fmt.Sprintf("j-%06d", s.nextID)
	s.jobs[j.id] = j
	s.mu.Unlock()

	s.stats.accepted.Add(1)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	obs.WriteJSON(noStatusWriter{w}, submitResponse{
		ID: j.id, State: j.state(), Location: "/v1/jobs/" + j.id,
		Coalesced: j.coalesced, Cached: j.cached, Key: key,
	})
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
		ID: j.id, Kind: j.kind, State: j.state(),
		Coalesced: j.coalesced, Cached: j.cached, Key: j.key,
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
		ID    string `json:"id"`
		Kind  string `json:"kind"`
		State string `json:"state"`
	}
	items := make([]item, 0, len(s.jobs))
	for _, j := range s.jobs {
		items = append(items, item{ID: j.id, Kind: j.kind, State: j.state()})
	}
	s.mu.Unlock()
	// Job ids are zero-padded sequence numbers; lexicographic order is
	// submission order.
	for i := 1; i < len(items); i++ {
		for k := i; k > 0 && items[k].ID < items[k-1].ID; k-- {
			items[k], items[k-1] = items[k-1], items[k]
		}
	}
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
		}{j.id, j.kind, j.exec.rec.Progress()})
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
