package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"psk/internal/obs"
	"psk/internal/serve"
)

// runService is anonymization as a service under an open loop: seeded
// exponential arrivals of async jobs against an in-process serve.Server
// over loopback HTTP, one op being one job timed from when it was due to
// the first poll that sees it finished. The serve layer does most of the
// work — JSON decode, content keying, validation, queueing and the
// result and dataset caches — while searches run on small tables and are
// skipped on cache hits. About half the jobs repeat a content key, and
// the key space exceeds the result cache.
func runService(e *env) error {
	l, err := newServiceLoad(e)
	if err != nil {
		return err
	}
	// Set-up is starting the server, waiting for /healthz and warming the
	// dataset cache with one job per dataset, repeated.
	var s *svcServer
	for i := 0; i < e.opt.setups; i++ {
		if s != nil {
			s.stop()
		}
		if err := e.ref.sample(); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		if s, err = startServer(); err != nil {
			return err
		}
		for ds := range l.csvJSON {
			if o := l.runJob(s, svcJob{kind: serve.KindAnonymize, ds: ds}, time.Now(), nil, 0); o.problem != "" {
				s.stop()
				return fmt.Errorf("warm-up job: %s", o.problem)
			}
		}
		e.out.setupS = append(e.out.setupS, time.Since(start).Seconds())
	}
	defer s.stop()
	if err := e.ref.setupDone(); err != nil {
		return err
	}

	before, err := s.metrics()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.opt.seed))
	plan := l.plan(rng, svcRate, e.opt.seconds, e.opt.trace)
	var stopSampler func() int
	if e.opt.trace {
		stopSampler = s.sampleQueueDepth(100 * time.Millisecond)
	}
	// The kernel would compete with the jobs for the CPUs, so it runs in
	// the pauses between segments of the open loop.
	runtime.GC()
	a0 := allocBytes()
	outs, err := l.openLoop(s, plan, e.spans, func() error { return e.ref.block(svcPauseSamples) })
	if err != nil {
		return err
	}
	a1 := allocBytes()
	var maxDepth int
	if stopSampler != nil {
		maxDepth = stopSampler()
	}
	after, err := s.metrics()
	if err != nil {
		return err
	}
	// Client and server share the process, so only the total splits per job.
	e.out.allocMiB = []float64{float64(a1-a0) / mib / float64(max(len(plan), 1))}

	results := make(map[serve.Key]string)
	var (
		late, submit, queue, run []float64
		sum                      reportSum
		traced                   int
	)
	for _, o := range outs {
		e.out.op()
		late = append(late, o.lateMs)
		if o.problem != "" {
			e.out.fail("%s", o.problem)
			continue
		}
		e.out.measured(o.traced, o.doneAt.Sub(o.due))
		checkResult(e, results, o)
		if o.traced {
			traced++
			submit = append(submit, o.submitMs)
			if o.queueMs >= 0 {
				queue = append(queue, o.queueMs)
				run = append(run, o.runMs)
			}
			sum.add(o.report, 1)
		}
	}
	e.out.rssMiB = peakRSSMiB()
	if !e.opt.trace {
		return nil
	}

	// The rate ladder: the highest rung whose p95 stays within 100 ms with
	// no failed job and the queue drained within a second of the last
	// arrival. Overload refusals (429) fail the rung, not the run.
	maxRate := 0.0
	for _, rate := range e.opt.rates {
		rung := l.plan(rng, rate, e.opt.rung, false)
		outs, err := l.openLoop(s, rung, nil, nil)
		if err != nil {
			return err
		}
		var ms []float64
		var lastDone time.Time
		pass := len(rung) > 0
		for _, o := range outs {
			if o.problem != "" {
				pass = false
				if !o.refused {
					e.out.fail("rung %g: %s", rate, o.problem)
				}
				continue
			}
			checkResult(e, results, o)
			ms = append(ms, float64(o.doneAt.Sub(o.due))/1e6)
			if o.doneAt.After(lastDone) {
				lastDone = o.doneAt
			}
		}
		if pass && quantile(ms, 0.95) <= 100 && lastDone.Sub(outs[len(outs)-1].due) <= time.Second {
			maxRate = rate
		}
	}

	jobs, err := s.jobRecords()
	if err != nil {
		return err
	}
	d := func(k string) int64 { return after.Counters[k] - before.Counters[k] }
	accepted := d("accepted")
	m := e.out.layers
	m["serve.submit_ms_p50"] = quantile(submit, 0.5)
	m["serve.submit_ms_p95"] = quantile(submit, 0.95)
	m["serve.queue_wait_ms_p50"] = quantile(queue, 0.5)
	m["serve.queue_wait_ms_p95"] = quantile(queue, 0.95)
	m["serve.run_ms_p50"] = quantile(run, 0.5)
	m["serve.result_hit_ratio"] = ratio(d("cache_hits"), accepted)
	m["serve.coalesced_ratio"] = ratio(d("coalesced"), accepted)
	m["serve.search_ratio"] = ratio(d("searches"), accepted)
	m["serve.rejected_429"] = float64(d("rejected_queue_full"))
	m["serve.queue_depth_max"] = float64(maxDepth)
	m["serve.job_records"] = float64(jobs)
	m["serve.max_rate_ops_s"] = maxRate
	m["bench.gen_late_p95_ms"] = quantile(late, 0.95)
	sum.fill(m, traced, l.latticeSize)
	m["runtime.live_heap_mib"] = liveHeapMiB()
	return nil
}

// checkResult holds every finished job to the service's promise: jobs
// sharing a content key return byte-identical results.
func checkResult(e *env, results map[serve.Key]string, o jobOutcome) {
	prior, seen := results[o.key]
	if !seen {
		results[o.key] = o.result
		return
	}
	e.out.check(prior == o.result, "job %s: result differs from an earlier job with the same content key", o.id)
}

// svcLoad is the traffic mix: the datasets and job variants requests
// are drawn from, pre-encoded as JSON fragments.
type svcLoad struct {
	csvJSON     [][]byte // each dataset's CSV as a JSON string
	jobJSON     [][]byte // each variant's job description
	checkJSON   [][]byte // each variant's check parameters
	latticeSize int
}

// newServiceLoad builds six Adult-shaped datasets (each small enough
// for the dataset cache, all six within its eight entries) and 24 job
// variants of the Table 7 job: eight k values, p alternating 1 and 2,
// three suppression budgets.
func newServiceLoad(e *env) (*svcLoad, error) {
	l := &svcLoad{}
	for i := 0; i < 6; i++ {
		tbl, err := genAdult(e.opt.svcRows, populationSeed+int64(i), e.opt.seed)
		if err != nil {
			return nil, err
		}
		var csv bytes.Buffer
		if err := tbl.WriteCSV(&csv); err != nil {
			return nil, err
		}
		raw, err := json.Marshal(csv.String())
		if err != nil {
			return nil, err
		}
		l.csvJSON = append(l.csvJSON, raw)
	}
	ks := []int{2, 3, 4, 5, 6, 8, 10, 12}
	budgets := []int{e.opt.svcRows / 200, e.opt.svcRows / 100, e.opt.svcRows / 50}
	for v := 0; v < len(ks)*len(budgets); v++ {
		job := *e.job
		job.K, job.P, job.MaxSuppress = ks[v%len(ks)], 1+v%2, budgets[v/len(ks)]
		raw, err := json.Marshal(&job)
		if err != nil {
			return nil, err
		}
		l.jobJSON = append(l.jobJSON, raw)
		check, err := json.Marshal(map[string]any{"qi": job.QuasiIdentifiers, "conf": job.Confidential, "k": job.K, "p": job.P})
		if err != nil {
			return nil, err
		}
		l.checkJSON = append(l.checkJSON, check)
	}
	_, m, err := e.masker()
	if err != nil {
		return nil, err
	}
	l.latticeSize = m.Lattice().Size()
	return l, nil
}

// svcJob is one planned request.
type svcJob struct {
	due    time.Duration // after the loop starts
	kind   string
	ds, v  int // dataset and variant
	masked bool
	traced bool
}

// plan lays out an open loop at rate jobs/s for seconds: the arrival
// times of a Poisson process given its count, drawn from r. The jobs are
// the same multiset under every seed, drawn from populationSeed and sent
// in an order r shuffles, so that seeds differ in timing and order but
// not in the work they ask for: anonymize 50% (a tenth of them asking for
// the masked CSV), check 30%, frontier 20%, datasets uniform, variants
// Zipf-skewed so about half the jobs repeat a content key. A traced plan
// traces every other job.
func (l *svcLoad) plan(r *rand.Rand, rate, seconds float64, traced bool) []svcJob {
	n := int(math.Round(rate * seconds))
	mix := rand.New(rand.NewSource(populationSeed))
	zipf := rand.NewZipf(mix, 1.1, 1, uint64(len(l.jobJSON)-1))
	jobs := make([]svcJob, n)
	for i := range jobs {
		j := &jobs[i]
		j.ds, j.v = mix.Intn(len(l.csvJSON)), int(zipf.Uint64())
		switch u := mix.Float64(); {
		case u < 0.5:
			j.kind, j.masked = serve.KindAnonymize, mix.Float64() < 0.1
		case u < 0.8:
			j.kind = serve.KindCheck
		default:
			j.kind = serve.KindFrontier
		}
	}
	r.Shuffle(n, func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	due := make([]float64, n)
	for i := range due {
		due[i] = r.Float64() * seconds
	}
	sort.Float64s(due)
	for i := range jobs {
		jobs[i].due = time.Duration(due[i] * float64(time.Second))
		jobs[i].traced = traced && i%2 == 1
	}
	return jobs
}

// body assembles the POST /v1/jobs document (serve.JobRequest's wire
// form) from the pre-encoded fragments, so sending costs no re-encoding
// of the CSV.
func (l *svcLoad) body(j svcJob) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"kind":%q,"csv":`, j.kind)
	b.Write(l.csvJSON[j.ds])
	if j.kind == serve.KindCheck {
		b.WriteByte(',')
		check := l.checkJSON[j.v]
		b.Write(check[1 : len(check)-1])
	} else {
		b.WriteString(`,"job":`)
		b.Write(l.jobJSON[j.v])
		if j.masked {
			b.WriteString(`,"include_masked":true`)
		}
	}
	b.WriteByte('}')
	return b.Bytes()
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	id      string
	problem string // why the job failed, "" when it succeeded
	refused bool   // the server answered 429
	traced  bool
	due     time.Time
	doneAt  time.Time
	lateMs  float64 // how late the generator issued it
	// submitMs is POST to 202; queueMs 202 to the first poll seeing it
	// running and runMs from there to done, both -1 when no poll saw it
	// running (cache hits, or jobs quicker than one poll).
	submitMs, queueMs, runMs float64
	key                      serve.Key
	result                   string
	report                   *obs.Report // traced jobs that ran their own search
}

// svcRate is the measured loop's arrival rate, jobs/s: the ladder's
// lowest rung, where queues stay short. At twice the rate the ten-run
// spread of the mean latency halved on a calm host, for more samples,
// but reached a fifth when the host slowed and queues built up.
const svcRate = 20

// svcSegment is the length of an open-loop segment, and svcPauseSamples
// the reference samples taken in each pause: a pause every two seconds
// spreads the samples over the run and, like refEvery, gives the kernel
// a tenth of its time.
const (
	svcSegment      = 2 * time.Second
	svcPauseSamples = 8
)

// openLoop sends the planned jobs on schedule, whatever the server's
// progress, and waits for all of them. With a pause, the schedule runs in
// segments of svcSegment: once every job of a segment has finished, pause
// runs, then the schedule resumes where it left off. Jobs are timed from
// when they were due, which the pauses do not change.
func (l *svcLoad) openLoop(s *svcServer, plan []svcJob, spans *spanLog, pause func() error) ([]jobOutcome, error) {
	outs := make([]jobOutcome, len(plan))
	var wg sync.WaitGroup
	start, resumed := time.Now(), time.Duration(0)
	end := time.Duration(math.MaxInt64)
	if pause != nil {
		end = svcSegment
	}
	for i, j := range plan {
		if j.due >= end {
			wg.Wait()
			if err := pause(); err != nil {
				return nil, err
			}
			start, resumed = time.Now(), end
			for j.due >= end {
				end += svcSegment
			}
		}
		due := start.Add(j.due - resumed)
		time.Sleep(time.Until(due))
		late := float64(time.Since(due)) / 1e6
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = l.runJob(s, j, due, spans, i)
			outs[i].lateMs = late
		}()
	}
	wg.Wait()
	if pause != nil {
		if err := pause(); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// runJob submits one job, polls it every millisecond until it finishes
// and checks its status: done, exit code 0 or 1, not stopped early.
func (l *svcLoad) runJob(s *svcServer, j svcJob, due time.Time, spans *spanLog, op int) jobOutcome {
	if !j.traced {
		spans = nil
	}
	o := jobOutcome{traced: j.traced, due: due, queueMs: -1, runMs: -1}
	root := spans.begin(op, 0, "service."+j.kind, due)
	defer func() { spans.finish(root, o.doneAt) }()
	fail := func(format string, a ...any) jobOutcome {
		o.problem = fmt.Sprintf(format, a...)
		o.doneAt = time.Now()
		return o
	}

	body := l.body(j)
	sent := time.Now()
	code, raw, err := s.do(http.MethodPost, "/v1/jobs", body)
	posted := time.Now()
	spans.finish(spans.begin(op, root, "serve.submit", sent), posted)
	o.submitMs = float64(posted.Sub(sent)) / 1e6
	if err != nil || code != http.StatusAccepted {
		o.refused = code == http.StatusTooManyRequests
		return fail("%s job: submit answered %d: %v %s", j.kind, code, err, raw)
	}
	var acc struct {
		ID        string    `json:"id"`
		Key       serve.Key `json:"key"`
		Cached    bool      `json:"cached"`
		Coalesced bool      `json:"coalesced"`
	}
	if err := json.Unmarshal(raw, &acc); err != nil {
		return fail("%s job: bad submit response: %v", j.kind, err)
	}
	o.id, o.key = acc.ID, acc.Key

	var st struct {
		State      string          `json:"state"`
		ExitCode   *int            `json:"exit_code"`
		StopReason string          `json:"stop_reason"`
		Error      string          `json:"error"`
		Result     json.RawMessage `json:"result"`
		Report     json.RawMessage `json:"report"`
	}
	var running time.Time
	for {
		code, raw, err = s.do(http.MethodGet, "/v1/jobs/"+acc.ID, nil)
		now := time.Now()
		if err != nil {
			return fail("job %s: poll: %v", acc.ID, err)
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return fail("job %s: bad status (%d): %v", acc.ID, code, err)
		}
		if st.State == "running" && running.IsZero() {
			running = now
		}
		if st.State != "queued" && st.State != "running" {
			o.doneAt = now
			break
		}
		if now.Sub(posted) > time.Minute {
			return fail("job %s still %s after a minute", acc.ID, st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if running.IsZero() {
		spans.finish(spans.begin(op, root, "serve.poll", posted), o.doneAt)
	} else {
		spans.finish(spans.begin(op, root, "serve.queue", posted), running)
		spans.finish(spans.begin(op, root, "serve.run", running), o.doneAt)
		o.queueMs = float64(running.Sub(posted)) / 1e6
		o.runMs = float64(o.doneAt.Sub(running)) / 1e6
	}
	if code != http.StatusOK || st.State != "done" || st.ExitCode == nil || *st.ExitCode > 1 || st.StopReason != "done" {
		return fail("job %s (%s): status %d, state %s, stop %q: %s", acc.ID, j.kind, code, st.State, st.StopReason, st.Error)
	}
	o.result = string(st.Result)
	if spans != nil && !acc.Cached && !acc.Coalesced {
		o.report = &obs.Report{}
		if err := json.Unmarshal(st.Report, o.report); err != nil {
			return fail("job %s: bad report: %v", acc.ID, err)
		}
	}
	return o
}

// svcServer is an in-process service on a loopback port and the one
// client every request goes through.
type svcServer struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	client *http.Client
	served chan struct{}
}

// startServer starts a service with default options and returns once
// /healthz answers.
func startServer() (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcServer{srv: serve.New(serve.Options{}), url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	s.http = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.served)
		s.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed once stop closes it
	}()
	// All load shares two connections, one per CPU of the reference host.
	s.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		code, _, err := s.do(http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return s, nil
		}
		if time.Since(start) > 10*time.Second {
			s.stop()
			return nil, fmt.Errorf("service never became healthy: status %d, %v", code, err)
		}
	}
}

// stop closes the listener and connections, then drains the service.
func (s *svcServer) stop() {
	s.http.Close() //nolint:errcheck // closing the listener; nothing to report
	<-s.served
	s.srv.Close() //nolint:errcheck // Close always returns nil
	s.client.CloseIdleConnections()
}

func (s *svcServer) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (s *svcServer) metrics() (serve.ServiceMetrics, error) {
	var m serve.ServiceMetrics
	code, raw, err := s.do(http.MethodGet, "/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	return m, err
}

// jobRecords is how many job records the service holds.
func (s *svcServer) jobRecords() (int, error) {
	var list struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	code, raw, err := s.do(http.MethodGet, "/v1/jobs", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/jobs: status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(raw, &list)
	}
	return len(list.Jobs), err
}

// sampleQueueDepth polls /metrics until the returned stop is called,
// which returns the deepest queue seen.
func (s *svcServer) sampleQueueDepth(every time.Duration) (stop func() int) {
	done, depth := make(chan struct{}), make(chan int)
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		max := 0
		for {
			select {
			case <-done:
				depth <- max
				return
			case <-tick.C:
				if m, err := s.metrics(); err == nil && m.Queue.Depth > max {
					max = m.Queue.Depth
				}
			}
		}
	}()
	return func() int {
		close(done)
		return <-depth
	}
}
