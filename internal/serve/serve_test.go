package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"psk/internal/config"
	"psk/internal/core"
	"psk/internal/obs"
	"psk/internal/search"
	"psk/internal/table"
)

const patientsCSV = `Age,ZipCode,Sex,Illness
25,41076,M,Flu
29,41076,M,Asthma
31,41076,F,Diabetes
38,41099,F,Flu
34,41099,M,Diabetes
36,41099,M,Asthma
52,43102,M,Flu
55,43102,F,Heart Disease
58,43102,M,Diabetes
61,43103,F,Asthma
64,43103,M,Flu
67,43103,F,Heart Disease
`

const jobJSON = `{
  "quasiIdentifiers": ["Age", "ZipCode", "Sex"],
  "confidential": ["Illness"],
  "k": 3, "p": 2, "maxSuppress": 2,
  "types": {"Age": "int"},
  "hierarchies": {
    "Age":     {"type": "interval",
                "levels": [{"name": "decades", "width": 10, "min": 20, "max": 70},
                           {"cuts": [50], "labels": ["<50", ">=50"]},
                           {"labels": ["*"]}]},
    "ZipCode": {"type": "prefixSteps", "width": 5, "suppress": [2, 5]},
    "Sex":     {"type": "flat", "top": "Person"}
  }
}`

func testJob(t *testing.T) *config.Job {
	t.Helper()
	j, err := config.Parse([]byte(jobJSON))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func anonRequest(t *testing.T) JobRequest {
	return JobRequest{Kind: KindAnonymize, CSV: patientsCSV, Job: testJob(t), IncludeMasked: true}
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("%s %s: decoding body: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, payload
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) (string, map[string]any) {
	t.Helper()
	status, _, payload := doJSON(t, "POST", ts.URL+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202 (%v)", status, payload)
	}
	id, _ := payload["id"].(string)
	if id == "" {
		t.Fatalf("submit: no job id in %v", payload)
	}
	return id, payload
}

// pollDone polls a job until it leaves the queued/running states.
func pollDone(t *testing.T, ts *httptest.Server, id string) (int, map[string]any) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, _, payload := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		switch payload["state"] {
		case "queued", "running":
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return status, payload
	}
	t.Fatalf("job %s did not finish", id)
	return 0, nil
}

// pollStopReason polls a job until its execution finished and reported
// a stop reason (a cancelled job reads as "cancelled" immediately, but
// its StopReason only appears once the worker disposed of it).
func pollStopReason(t *testing.T, ts *httptest.Server, id string) (int, map[string]any) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, _, payload := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if sr, _ := payload["stop_reason"].(string); sr != "" {
			return status, payload
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reported a stop reason", id)
	return 0, nil
}

func counters(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	_, _, payload := doJSON(t, "GET", ts.URL+"/metrics", nil)
	raw, _ := payload["counters"].(map[string]any)
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		f, _ := v.(float64)
		out[k] = f
	}
	return out
}

func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct{ exit, want int }{
		{ExitOK, 200},
		{ExitViolation, 200},
		{ExitInputError, 400},
		{-1, 500},
		{3, 500},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.exit); got != c.want {
			t.Errorf("HTTPStatus(%d) = %d, want %d", c.exit, got, c.want)
		}
	}
}

func TestCheckVerdicts(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Satisfied: grouping by Sex alone gives two large diverse groups.
	id, _ := submit(t, ts, JobRequest{
		Kind: KindCheck, CSV: patientsCSV,
		QIs: []string{"Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	status, payload := pollDone(t, ts, id)
	if status != 200 || payload["state"] != "done" {
		t.Fatalf("satisfied check: status %d state %v (%v)", status, payload["state"], payload)
	}
	if payload["exit_code"].(float64) != ExitOK {
		t.Errorf("satisfied check: exit %v, want 0", payload["exit_code"])
	}
	res := payload["result"].(map[string]any)["check"].(map[string]any)
	if res["satisfied"] != true {
		t.Errorf("satisfied check: result %v", res)
	}

	// Violated: the raw microdata is nowhere near 3-anonymous on all QIs.
	// A violation is a verdict: HTTP 200, exit code 1.
	id, _ = submit(t, ts, JobRequest{
		Kind: KindCheck, CSV: patientsCSV,
		QIs: []string{"Age", "ZipCode", "Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	status, payload = pollDone(t, ts, id)
	if status != 200 || payload["state"] != "done" {
		t.Fatalf("violated check: status %d state %v", status, payload["state"])
	}
	if payload["exit_code"].(float64) != ExitViolation {
		t.Errorf("violated check: exit %v, want 1", payload["exit_code"])
	}
	res = payload["result"].(map[string]any)["check"].(map[string]any)
	if res["satisfied"] != false {
		t.Errorf("violated check: result %v", res)
	}
}

func TestSubmitInputErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"unknown kind", JobRequest{Kind: "transmogrify", CSV: patientsCSV}},
		{"missing kind", JobRequest{CSV: patientsCSV}},
		{"missing csv", JobRequest{Kind: KindCheck, QIs: []string{"Sex"}}},
		{"check without qi", JobRequest{Kind: KindCheck, CSV: patientsCSV}},
		{"bad k", JobRequest{Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, K: 1}},
		{"p without conf", JobRequest{Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, K: 3, P: 2}},
		{"negative budget", JobRequest{Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"},
			Budget: BudgetRequest{MaxNodes: -5}}},
		{"anonymize without job", JobRequest{Kind: KindAnonymize, CSV: patientsCSV}},
		{"bad algorithm", func(t *testing.T) JobRequest {
			r := anonRequest(t)
			r.Algorithm = "quantum"
			return r
		}(t)},
		{"malformed csv", func(t *testing.T) JobRequest {
			r := anonRequest(t)
			r.CSV = "Age,Zip\n1,2,3,4\n"
			return r
		}(t)},
		{"attack without external", JobRequest{Kind: KindAttack, CSV: patientsCSV, QIs: []string{"Sex"}}},
		{"interval level too wide", func(t *testing.T) JobRequest {
			r := anonRequest(t)
			age := r.Job.Hierarchies["Age"]
			age.Levels[0].Width, age.Levels[0].Max = 1, 1<<40
			r.Job.Hierarchies["Age"] = age
			return r
		}(t)},
	}
	for _, c := range cases {
		status, _, payload := doJSON(t, "POST", ts.URL+"/v1/jobs", c.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400 (%v)", c.name, status, payload)
		}
		if payload["error"] == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}

	// File-based hierarchy specs must be rejected: the service will not
	// read server-side paths named by a request.
	r := anonRequest(t)
	r.Job.Hierarchies["Sex"] = config.HierarchySpec{Type: "tree", File: "/etc/passwd"}
	status, _, payload := doJSON(t, "POST", ts.URL+"/v1/jobs", r)
	if status != http.StatusBadRequest || !strings.Contains(fmt.Sprint(payload["error"]), "file-based") {
		t.Errorf("file hierarchy: got %d %v, want 400 file-based rejection", status, payload)
	}

	c := counters(t, ts)
	if c["rejected_input"] == 0 {
		t.Errorf("rejected_input counter not bumped: %v", c)
	}
	if c["searches"] != 0 {
		t.Errorf("rejected requests reached the engine: searches = %v", c["searches"])
	}
}

func TestUnknownJobAnd409(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if status, _, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/j-999999", nil); status != 404 {
		t.Errorf("GET unknown job: %d, want 404", status)
	}
	if status, _, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/j-999999", nil); status != 404 {
		t.Errorf("DELETE unknown job: %d, want 404", status)
	}

	id, _ := submit(t, ts, JobRequest{
		Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	pollDone(t, ts, id)
	if status, _, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil); status != 409 {
		t.Errorf("DELETE finished job: %d, want 409", status)
	}
	if status, _, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/nonsense", nil); status != 404 {
		t.Errorf("GET unknown job endpoint: %d, want 404", status)
	}
}

// blockingExecution occupies a worker until the returned channel is
// closed; it never touches the engine.
func blockingExecution(key string) (*execution, chan struct{}) {
	block := make(chan struct{})
	ex := newExecution(Key{Dataset: key}, KindCheck,
		func(ctx context.Context, rec *obs.Recorder) (*JobResult, search.StopReason, error) {
			<-block
			return &JobResult{Check: &CheckResult{Satisfied: true, Group: -1}}, search.StopDone, nil
		})
	return ex, block
}

func waitStarted(t *testing.T, ex *execution) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ex.started.Load() {
		if time.Now().After(deadline) {
			t.Fatal("execution never started")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueSize: 1, Workers: 1})

	// Occupy the single worker, then fill the single queue slot.
	ex1, block := blockingExecution("worker-hog")
	s.queue <- ex1
	waitStarted(t, ex1)
	ex2, block2 := blockingExecution("queue-filler")
	defer close(block2)
	s.queue <- ex2

	before := counters(t, ts)
	status, header, payload := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	if status != http.StatusTooManyRequests {
		t.Fatalf("full queue: got %d, want 429 (%v)", status, payload)
	}
	if header.Get("Retry-After") == "" {
		t.Error("full queue: no Retry-After header")
	}
	after := counters(t, ts)
	if after["searches"] != before["searches"] {
		t.Errorf("rejected job touched the engine: searches %v -> %v", before["searches"], after["searches"])
	}
	if after["rejected_queue_full"] != before["rejected_queue_full"]+1 {
		t.Errorf("rejected_queue_full not bumped: %v -> %v", before, after)
	}

	// Unblocking drains the queue; the same request is now accepted.
	close(block)
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, _ = doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{
			Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
		})
		if status == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: last status %d", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSingleFlightAndResultCache: concurrent tenants over several
// distinct keys at once. Each variant's tenants share one search, and
// every tenant of a variant reads byte-identical results.
func TestSingleFlightAndResultCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	const tenants = 8
	ks := []int{2, 3, 4}
	variant := func(v int) JobRequest {
		req := anonRequest(t)
		req.Job.K = ks[v]
		return req
	}

	ids := make([][]string, len(ks))
	var wg sync.WaitGroup
	for v := range ks {
		ids[v] = make([]string, tenants)
		raw, err := json.Marshal(variant(v))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(v, i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var payload map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
					t.Error(err)
					return
				}
				ids[v][i], _ = payload["id"].(string)
			}(v, i)
		}
	}
	wg.Wait()

	results := make([]string, len(ks))
	for v := range ks {
		for _, id := range ids[v] {
			if id == "" {
				t.Fatalf("k=%d: missing job id", ks[v])
			}
			status, payload := pollDone(t, ts, id)
			if status != 200 || payload["state"] != "done" {
				t.Fatalf("k=%d job %s: status %d state %v", ks[v], id, status, payload["state"])
			}
			raw, _ := json.Marshal(payload["result"])
			if results[v] == "" {
				results[v] = string(raw)
			} else if string(raw) != results[v] {
				t.Errorf("k=%d job %s: result differs from the variant's first tenant", ks[v], id)
			}
		}
	}
	if results[0] == results[1] || results[1] == results[2] {
		t.Error("variants with different k returned identical results")
	}

	c := counters(t, ts)
	if c["searches"] != float64(len(ks)) {
		t.Errorf("%d variants ran %v searches, want exactly %d", len(ks), c["searches"], len(ks))
	}
	if want := float64(len(ks) * (tenants - 1)); c["coalesced"]+c["cache_hits"] != want {
		t.Errorf("coalesced(%v) + cache_hits(%v) != %v", c["coalesced"], c["cache_hits"], want)
	}

	// A later identical submission is a pure cache hit.
	id, sub := submit(t, ts, variant(1))
	if sub["cached"] != true {
		t.Errorf("post-completion submit not served from cache: %v", sub)
	}
	status, payload := pollDone(t, ts, id)
	if status != 200 || payload["state"] != "done" {
		t.Fatalf("cached job: status %d state %v", status, payload["state"])
	}
	if c2 := counters(t, ts); c2["searches"] != float64(len(ks)) {
		t.Errorf("cache hit re-ran the search: %v", c2["searches"])
	}
}

func TestAnonymizeResultVerifies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, alg := range []string{"samarati", "bottomup", "exhaustive", "allminimal", "incognito"} {
		r := anonRequest(t)
		r.Algorithm = alg
		id, _ := submit(t, ts, r)
		status, payload := pollDone(t, ts, id)
		if status != 200 || payload["state"] != "done" {
			t.Fatalf("%s: status %d state %v (%v)", alg, status, payload["state"], payload["error"])
		}
		res := payload["result"].(map[string]any)["anonymize"].(map[string]any)
		if res["found"] != true || len(res["all_minimal"].([]any)) == 0 {
			t.Fatalf("%s: not found: %v", alg, res)
		}
		masked, err := table.ReadCSV(strings.NewReader(res["masked_csv"].(string)), nil)
		if err != nil {
			t.Fatal(err)
		}
		verdict, err := core.Check(masked, []string{"Age", "ZipCode", "Sex"}, []string{"Illness"}, 2, 3)
		if err != nil || !verdict.Satisfied {
			t.Errorf("%s: released table not 2-sensitive 3-anonymous: %v %v", alg, verdict, err)
		}
		if payload["stop_reason"] != "done" {
			t.Errorf("%s: stop_reason %v, want done", alg, payload["stop_reason"])
		}
		if payload["report"] == nil {
			t.Errorf("%s: no report embedded in the finished job", alg)
		}
	}
}

// TestPaddedHeader pins that a dataset's header names match the job as
// the table reader trims them: a space after "Age" in the header changes
// nothing in the result.
func TestPaddedHeader(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	result := func(csv string) any {
		t.Helper()
		r := anonRequest(t)
		r.CSV = csv
		id, _ := submit(t, ts, r)
		status, payload := pollDone(t, ts, id)
		if status != 200 || payload["state"] != "done" {
			t.Fatalf("status %d state %v (%v)", status, payload["state"], payload["error"])
		}
		return payload["result"]
	}
	want := result(patientsCSV)
	if got := result(strings.Replace(patientsCSV, "Age,", "Age ,", 1)); !reflect.DeepEqual(got, want) {
		t.Errorf("padded header gave %v, want %v", got, want)
	}
}

// wideIncognito is an Incognito anonymize job over n quasi-identifiers,
// each with a flat hierarchy. Incognito projects the base statistics
// onto all 2^n − 2 proper QI subsets before it evaluates a node.
func wideIncognito(n, rows int) JobRequest {
	job := &config.Job{Confidential: []string{"C"}, K: 2, P: 2, Hierarchies: map[string]config.HierarchySpec{}}
	var csv strings.Builder
	for j := 0; j < n; j++ {
		q := fmt.Sprintf("Q%d", j)
		job.QuasiIdentifiers = append(job.QuasiIdentifiers, q)
		job.Hierarchies[q] = config.HierarchySpec{Type: "flat", Top: "*"}
		csv.WriteString(q + ",")
	}
	csv.WriteString("C\n")
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			fmt.Fprintf(&csv, "%d,", i*(j+3)%17)
		}
		fmt.Fprintf(&csv, "%d\n", i%5)
	}
	return JobRequest{Kind: KindAnonymize, CSV: csv.String(), Job: job, Algorithm: "incognito"}
}

// TestIncognitoBounded: an Incognito job over more than 16
// quasi-identifiers is a 400 at submit, and a 12-QI job under a 1-ms
// deadline stops at the deadline while it is still projecting subset
// statistics, not after all 4094 projections.
func TestIncognitoBounded(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, payload := doJSON(t, "POST", ts.URL+"/v1/jobs", wideIncognito(17, 20))
	if status != http.StatusBadRequest || !strings.Contains(fmt.Sprint(payload["error"]), "at most 16") {
		t.Errorf("17-QI incognito: got %d %v, want 400", status, payload)
	}

	r := wideIncognito(12, 300)
	r.Budget.TimeoutMS = 1
	id, _ := submit(t, ts, r)
	_, payload = pollDone(t, ts, id)
	if payload["stop_reason"] != search.StopDeadline.String() {
		t.Fatalf("stop_reason %v, want deadline (%v)", payload["stop_reason"], payload["error"])
	}
	for _, ph := range payload["report"].(map[string]any)["phases"].([]any) {
		if ph := ph.(map[string]any); ph["phase"] == "rollup" && ph["count"].(float64) >= 1<<12-2 {
			t.Errorf("%v roll-ups: all subset projections were built past the deadline", ph["count"])
		}
	}
}

func TestFrontierAndAttackKinds(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	req := anonRequest(t)
	req.Kind = KindFrontier
	req.IncludeMasked = false
	id, _ := submit(t, ts, req)
	status, payload := pollDone(t, ts, id)
	if status != 200 || payload["state"] != "done" {
		t.Fatalf("frontier: status %d state %v (%v)", status, payload["state"], payload["error"])
	}
	members := payload["result"].(map[string]any)["frontier"].(map[string]any)["members"].([]any)
	if len(members) == 0 {
		t.Error("frontier: no members")
	}

	external := "Name,Age,ZipCode,Sex\nAlice,25,41076,M\nBob,61,43103,F\n"
	id, _ = submit(t, ts, JobRequest{
		Kind: KindAttack, CSV: patientsCSV, ExternalCSV: external,
		QIs: []string{"Age", "ZipCode", "Sex"}, Conf: []string{"Illness"},
	})
	status, payload = pollDone(t, ts, id)
	if status != 200 || payload["state"] != "done" {
		t.Fatalf("attack: status %d state %v (%v)", status, payload["state"], payload["error"])
	}
	atk := payload["result"].(map[string]any)["attack"].(map[string]any)
	if atk["individuals"].(float64) != 2 {
		t.Errorf("attack: individuals %v, want 2", atk["individuals"])
	}
	// The raw microdata links both intruder records uniquely.
	if atk["uniquely_identified"].(float64) != 2 {
		t.Errorf("attack on raw data: uniquely_identified %v, want 2", atk["uniquely_identified"])
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueSize: 4, Workers: 1})
	ex, block := blockingExecution("hog")
	s.queue <- ex
	waitStarted(t, ex)

	id, _ := submit(t, ts, anonRequest(t))
	status, _, payload := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if status != 200 || payload["state"] != "cancelled" {
		t.Fatalf("cancel queued: status %d state %v", status, payload["state"])
	}
	if status, _, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil); status != 409 {
		t.Errorf("double cancel: %d, want 409", status)
	}
	before := counters(t, ts)
	close(block)
	// The worker must skip the cancelled execution without running it.
	status, payload = pollStopReason(t, ts, id)
	if status != 200 || payload["state"] != "cancelled" {
		t.Fatalf("cancelled job: status %d state %v", status, payload["state"])
	}
	if payload["stop_reason"] != search.StopCancelled.String() {
		t.Errorf("stop_reason %v, want %v", payload["stop_reason"], search.StopCancelled.String())
	}
	after := counters(t, ts)
	if after["searches"] != before["searches"] {
		t.Errorf("cancelled queued job touched the engine: %v -> %v", before["searches"], after["searches"])
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	// A run that holds until its context is cancelled — a stand-in for a
	// long search; the engine's own context plumbing is covered by the
	// search package's cancellation tests.
	ex := newExecution(Key{Dataset: "slow"}, KindAnonymize,
		func(ctx context.Context, rec *obs.Recorder) (*JobResult, search.StopReason, error) {
			<-ctx.Done()
			return nil, search.StopCancelled, nil
		})
	s.mu.Lock()
	ex.refs.Add(1)
	s.execs[ex.key] = ex
	s.nextID++
	j := &job{id: fmt.Sprintf("j-%06d", s.nextID), kind: ex.kind, key: ex.key, exec: ex}
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.queue <- ex
	waitStarted(t, ex)

	status, _, payload := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+j.id, nil)
	if status != 200 {
		t.Fatalf("cancel running: status %d (%v)", status, payload)
	}
	status, payload = pollStopReason(t, ts, j.id)
	if status != 200 || payload["state"] != "cancelled" {
		t.Fatalf("cancelled running job: status %d state %v", status, payload["state"])
	}
	if payload["stop_reason"] != search.StopCancelled.String() {
		t.Errorf("stop_reason %v, want cancelled", payload["stop_reason"])
	}
}

func TestCoalescedFollowerKeepsSearchAlive(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	gate := make(chan struct{})
	ex := newExecution(Key{Dataset: "shared"}, KindCheck,
		func(ctx context.Context, rec *obs.Recorder) (*JobResult, search.StopReason, error) {
			<-gate
			if ctx.Err() != nil {
				return nil, search.StopCancelled, nil
			}
			return &JobResult{Check: &CheckResult{Satisfied: true, Group: -1}}, search.StopDone, nil
		})
	s.mu.Lock()
	ex.refs.Add(2) // leader + follower
	s.execs[ex.key] = ex
	leader := &job{id: "j-900001", kind: ex.kind, key: ex.key, exec: ex, coalesced: false}
	follower := &job{id: "j-900002", kind: ex.kind, key: ex.key, exec: ex, coalesced: true}
	s.jobs[leader.id] = leader
	s.jobs[follower.id] = follower
	s.mu.Unlock()
	s.queue <- ex
	waitStarted(t, ex)

	// Cancelling the leader must NOT cancel the shared execution: the
	// follower still wants the result.
	if status, _, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+leader.id, nil); status != 200 {
		t.Fatal("leader cancel failed")
	}
	if ex.ctx.Err() != nil {
		t.Fatal("leader cancel killed the shared execution")
	}
	close(gate)
	status, payload := pollDone(t, ts, follower.id)
	if status != 200 || payload["state"] != "done" {
		t.Fatalf("follower: status %d state %v", status, payload["state"])
	}
	// The leader reads as cancelled even though the execution completed.
	_, payload = pollDone(t, ts, leader.id)
	if payload["state"] != "cancelled" {
		t.Errorf("leader state %v, want cancelled", payload["state"])
	}
}

func TestDrainingReturns503(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	status, header, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", status)
	}
	if header.Get("Retry-After") == "" {
		t.Error("draining submit: no Retry-After header")
	}
	_, _, payload := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if payload["state"] != "draining" {
		t.Errorf("healthz state %v, want draining", payload["state"])
	}
}

func TestPerJobObsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id, _ := submit(t, ts, anonRequest(t))
	pollDone(t, ts, id)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	var rep obs.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("per-job /metrics is not a report: %v", err)
	}

	// The scrape and the report embedded in the status payload are the
	// same document byte for byte (after re-indenting the embedded one,
	// which sits at a deeper nesting level).
	gr, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.NewDecoder(gr.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	var norm bytes.Buffer
	if err := json.Indent(&norm, status.Report, "", "  "); err != nil {
		t.Fatal(err)
	}
	norm.WriteByte('\n')
	if !bytes.Equal(norm.Bytes(), buf.Bytes()) {
		t.Errorf("embedded report and /metrics scrape differ:\n--- embedded ---\n%s\n--- scrape ---\n%s",
			norm.String(), buf.String())
	}

	for _, ep := range []string{"/progress", "/healthz"} {
		if status, _, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+ep, nil); status != 200 {
			t.Errorf("per-job %s: %d, want 200", ep, status)
		}
	}
}

func TestSharedDatasetCacheReuse(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id, _ := submit(t, ts, anonRequest(t))
	pollDone(t, ts, id)

	// A different config over the same (dataset, hierarchy) pair reuses
	// the shared entry instead of re-parsing.
	req := anonRequest(t)
	req.Job.K = 2
	id2, sub := submit(t, ts, req)
	if sub["cached"] == true || sub["coalesced"] == true {
		t.Fatalf("different config unexpectedly deduped: %v", sub)
	}
	pollDone(t, ts, id2)
	s.mu.Lock()
	nd := len(s.datasets)
	s.mu.Unlock()
	if nd != 1 {
		t.Errorf("dataset cache entries = %d, want 1 shared entry", nd)
	}
	if c := counters(t, ts); c["searches"] != 2 {
		t.Errorf("searches = %v, want 2", c["searches"])
	}
}

// patientsRows is the patients fixture's shape at n rows: every
// value lies in the job's hierarchies, and the rows repeat with
// different periods so the lattice has work at every level.
func patientsRows(n int) string {
	zips := []string{"41076", "41099", "43102", "43103", "41075", "43188"}
	ills := []string{"Flu", "Asthma", "Diabetes", "Heart Disease"}
	var b strings.Builder
	b.WriteString("Age,ZipCode,Sex,Illness\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%s,%s,%s\n", 20+i*7%50, zips[i*5%len(zips)], []string{"M", "F"}[i%2], ills[i*3%len(ills)])
	}
	return b.String()
}

// jobCache submits req, waits for it and returns its report's cache
// section.
func jobCache(t *testing.T, ts *httptest.Server, req JobRequest) any {
	t.Helper()
	id, _ := submit(t, ts, req)
	_, payload := pollDone(t, ts, id)
	rep, _ := payload["report"].(map[string]any)
	if rep == nil {
		t.Fatalf("job %s has no report: %v", id, payload)
	}
	return rep["cache"]
}

// TestJobCacheTelemetryIsOwn: a job's report.cache describes its own
// search, because every search builds its own generalization cache.
// Run after another job over the same dataset, or started beside one
// on the other queue worker, job B reports what it reports on a fresh
// server.
func TestJobCacheTelemetryIsOwn(t *testing.T) {
	for _, c := range []struct {
		csv, kind, algorithm string
	}{
		{patientsCSV, KindAnonymize, ""},
		{patientsRows(3000), KindFrontier, "exhaustive"},
	} {
		a := anonRequest(t)
		a.CSV, a.Kind, a.Algorithm = c.csv, c.kind, c.algorithm
		b := a
		b.Job = testJob(t)
		b.Job.K = 2
		csv := c.csv

		_, solo := newTestServer(t, Options{})
		want := jobCache(t, solo, b)

		_, ts := newTestServer(t, Options{})
		jobCache(t, ts, a)
		if got := jobCache(t, ts, b); !reflect.DeepEqual(got, want) {
			t.Errorf("%d rows, B after A: cache %v, B alone %v", strings.Count(csv, "\n")-1, got, want)
		}

		for round := 0; round < 4; round++ {
			s, ts := newTestServer(t, Options{Workers: 2})
			// Hold both queue workers, queue A and B, then release the
			// workers together so the two searches start at once.
			var blocks []chan struct{}
			for i := 0; i < 2; i++ {
				ex, block := blockingExecution(fmt.Sprint("hold-", i))
				s.queue <- ex
				waitStarted(t, ex)
				blocks = append(blocks, block)
			}
			idA, _ := submit(t, ts, a)
			idB, _ := submit(t, ts, b)
			for _, block := range blocks {
				close(block)
			}
			_, pb := pollDone(t, ts, idB)
			pollDone(t, ts, idA)
			if got := pb["report"].(map[string]any)["cache"]; !reflect.DeepEqual(got, want) {
				t.Errorf("%d rows, round %d, B beside A: cache %v, B alone %v", strings.Count(csv, "\n")-1, round, got, want)
			}
		}
	}
}

func TestBudgetClamp(t *testing.T) {
	cap := search.Budget{Deadline: 10 * time.Second, MaxNodes: 100}
	cases := []struct {
		req  BudgetRequest
		want search.Budget
	}{
		{BudgetRequest{}, search.Budget{Deadline: 10 * time.Second, MaxNodes: 100}},
		{BudgetRequest{TimeoutMS: 2000}, search.Budget{Deadline: 2 * time.Second, MaxNodes: 100}},
		{BudgetRequest{TimeoutMS: 60000, MaxNodes: 5}, search.Budget{Deadline: 10 * time.Second, MaxNodes: 5}},
		{BudgetRequest{MaxNodes: 1000, MaxCacheBytes: 1 << 20},
			search.Budget{Deadline: 10 * time.Second, MaxNodes: 100, MaxCacheBytes: 1 << 20}},
	}
	for i, c := range cases {
		if got := clampBudget(c.req, cap); got != c.want {
			t.Errorf("case %d: clampBudget = %+v, want %+v", i, got, c.want)
		}
	}
}

func TestKeyHashing(t *testing.T) {
	r1 := anonRequest(t)
	r2 := anonRequest(t)
	eff := search.Budget{Deadline: time.Second}
	k1, err := r1.key(eff)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := r2.key(eff)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("identical requests hash differently:\n%+v\n%+v", k1, k2)
	}

	// Worker count must NOT split the key (results are worker-invariant).
	r2.Workers = 7
	if k2, _ = r2.key(eff); k1 != k2 {
		t.Error("worker count changed the key")
	}

	// Algorithm, budget and data all must split it.
	r2.Algorithm = "exhaustive"
	if k2, _ = r2.key(eff); k1.Config == k2.Config {
		t.Error("algorithm did not change the config hash")
	}
	r2 = anonRequest(t)
	if k2, _ = r2.key(search.Budget{Deadline: 2 * time.Second}); k1.Config == k2.Config {
		t.Error("budget did not change the config hash")
	}
	r2 = anonRequest(t)
	r2.CSV += "25,41076,M,Flu\n"
	if k2, _ = r2.key(eff); k1.Dataset == k2.Dataset {
		t.Error("csv bytes did not change the dataset fingerprint")
	}
	r2 = anonRequest(t)
	r2.Job.K = 5
	if k2, _ = r2.key(eff); k1.Config == k2.Config {
		t.Error("k did not change the config hash")
	}
}
