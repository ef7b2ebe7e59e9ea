package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"psk/internal/config"
	"psk/internal/search"
)

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// postRaw sends body as is to POST /v1/jobs.
func postRaw(t *testing.T, ts *httptest.Server, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("submit: decoding body: %v", err)
	}
	return resp.StatusCode, payload
}

// serveSubmit sends body to POST /v1/jobs through h, with its
// Content-Length, and decodes the answer.
func serveSubmit(t *testing.T, h http.Handler, body []byte) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	var payload map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("submit: decoding body %q: %v", rec.Body.Bytes(), err)
	}
	return rec.Code, payload
}

// holdWorkers occupies n queue workers of s until the returned release
// is called, or the test ends.
func holdWorkers(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	var blocks []chan struct{}
	for i := 0; i < n; i++ {
		ex, block := blockingExecution(fmt.Sprint("hold-", i))
		s.queue <- ex
		waitStarted(t, ex)
		blocks = append(blocks, block)
	}
	release = sync.OnceFunc(func() {
		for _, block := range blocks {
			close(block)
		}
	})
	// Cleanups run last-in first-out: the workers are free before the
	// server drains.
	t.Cleanup(release)
	return release
}

func checkRequest() JobRequest {
	return JobRequest{Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, Conf: []string{"Illness"}, K: 3, P: 2}
}

// TestResubmitAfterCancelRunsFresh: a job cancelled while queued was
// the last on its execution, so the execution is dead. The same bytes
// submitted again queue a fresh execution and finish done; they do not
// coalesce onto the cancelled one.
func TestResubmitAfterCancelRunsFresh(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueSize: 4, Workers: 1})
	release := holdWorkers(t, s, 1)

	id, _ := submit(t, ts, anonRequest(t))
	if status, _, payload := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil); status != 200 {
		t.Fatalf("cancel queued: status %d (%v)", status, payload)
	}
	id2, sub := submit(t, ts, anonRequest(t))
	if sub["coalesced"] == true || sub["cached"] == true {
		t.Errorf("resubmit attached to the cancelled execution: %v", sub)
	}
	release()
	status, payload := pollDone(t, ts, id2)
	if status != 200 || payload["state"] != "done" || payload["stop_reason"] != search.StopDone.String() {
		t.Fatalf("resubmit: status %d state %v stop_reason %v, want 200 done done",
			status, payload["state"], payload["stop_reason"])
	}
	if _, payload := pollStopReason(t, ts, id); payload["state"] != "cancelled" {
		t.Errorf("cancelled job now reads %v", payload["state"])
	}
}

// TestFailedExecutionIsNotReplayed: a worker closes an execution's
// outcome before it takes the server lock to drop an uncacheable one.
// A submit in that window, here an execution left failed in the key
// index, queues a fresh execution instead of replaying the failure.
func TestFailedExecutionIsNotReplayed(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := anonRequest(t)
	if err := req.validate(); err != nil {
		t.Fatal(err)
	}
	key, err := req.key(clampBudget(req.Budget, s.opt.MaxBudget))
	if err != nil {
		t.Fatal(err)
	}
	failed := newExecution(key, req.Kind, nil)
	failed.finish(nil, search.StopDone, errors.New("another tenant's internal failure"))
	s.mu.Lock()
	s.execs[key] = failed
	s.mu.Unlock()

	id, sub := submit(t, ts, anonRequest(t))
	if sub["cached"] == true || sub["coalesced"] == true {
		t.Errorf("submit attached to a failed execution: %v", sub)
	}
	status, payload := pollDone(t, ts, id)
	if status != 200 || payload["state"] != "done" {
		t.Fatalf("submit: status %d state %v (%v), want 200 done", status, payload["state"], payload["error"])
	}
	s.mu.Lock()
	replaced := s.execs[key] != failed
	s.mu.Unlock()
	if !replaced {
		t.Error("the failed execution is still indexed under its key")
	}
}

// TestListInSubmissionOrder: GET /v1/jobs lists jobs in the order they
// were submitted, also where the ids outgrow their six-digit padding.
func TestListInSubmissionOrder(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.mu.Lock()
	s.nextID = 999998
	s.mu.Unlock()
	var want []string
	for k := 2; k <= 4; k++ {
		req := checkRequest()
		req.K = k
		id, _ := submit(t, ts, req)
		want = append(want, id)
	}
	_, _, payload := doJSON(t, "GET", ts.URL+"/v1/jobs", nil)
	var got []string
	for _, it := range payload["jobs"].([]any) {
		got = append(got, it.(map[string]any)["id"].(string))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GET /v1/jobs lists %v, want %v", got, want)
	}
}

// TestRepeatSubmitParsesNothing: repeated bytes parse no CSV. A submit
// of the same bytes coalesced while the workers are held and a resubmit
// after the job finished leave dataset_parses where the first left it.
// The same request in another byte form (another workers value) is
// decoded and prepared before it attaches by key, so a check may parse
// its CSV once more and a search finds its dataset cached. All four
// jobs read byte-identical results.
func TestRepeatSubmitParsesNothing(t *testing.T) {
	for _, req := range []JobRequest{checkRequest(), anonRequest(t)} {
		s, ts := newTestServer(t, Options{Workers: 1})
		raw := marshal(t, req)
		other := req
		other.Workers = 3
		otherRaw := marshal(t, other)

		release := holdWorkers(t, s, 1)
		var ids []string
		post := func(body []byte, want string) {
			t.Helper()
			status, sub := postRaw(t, ts, body)
			if status != http.StatusAccepted {
				t.Fatalf("%s: submit answered %d (%v)", req.Kind, status, sub)
			}
			if want != "" && sub[want] != true {
				t.Errorf("%s: submit %d not %s: %v", req.Kind, len(ids)+1, want, sub)
			}
			ids = append(ids, sub["id"].(string))
		}
		post(raw, "")
		parses := counters(t, ts)["dataset_parses"]
		if parses != 1 {
			t.Fatalf("%s: first submit made %v parses, want 1", req.Kind, parses)
		}
		post(raw, "coalesced")
		release()
		pollDone(t, ts, ids[0])
		post(raw, "cached")
		if got := counters(t, ts)["dataset_parses"]; got != parses {
			t.Errorf("%s: repeated bytes moved dataset_parses %v -> %v", req.Kind, parses, got)
		}
		post(otherRaw, "cached")
		want := parses
		if req.Kind == KindCheck {
			want++
		}
		if got := counters(t, ts)["dataset_parses"]; got > want {
			t.Errorf("%s: another byte form moved dataset_parses %v -> %v, want at most %v", req.Kind, parses, got, want)
		}

		var first []byte
		for _, id := range ids {
			status, payload := pollDone(t, ts, id)
			if status != 200 || payload["state"] != "done" {
				t.Fatalf("%s job %s: status %d state %v", req.Kind, id, status, payload["state"])
			}
			res := marshal(t, payload["result"])
			if first == nil {
				first = res
			} else if !bytes.Equal(res, first) {
				t.Errorf("%s job %s: result %s differs from the first job's %s", req.Kind, id, res, first)
			}
		}
	}
}

// TestCheckKeyIgnoresJob: a check job reads its parameters from the
// request, not from a job description it carries, and its key covers
// what it reads. Two checks that differ only in qi, both carrying one
// job description, are two computations with two verdicts.
func TestCheckKeyIgnoresJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	satisfied := checkRequest()
	satisfied.Job = testJob(t)
	violated := satisfied
	violated.QIs = []string{"Age", "ZipCode", "Sex"}
	for _, c := range []struct {
		req  JobRequest
		want bool
	}{{satisfied, true}, {violated, false}} {
		id, sub := submit(t, ts, c.req)
		_, payload := pollDone(t, ts, id)
		res, _ := payload["result"].(map[string]any)["check"].(map[string]any)
		if res["satisfied"] != c.want {
			t.Errorf("check on %v: satisfied %v, want %v (submit %v)", c.req.QIs, res["satisfied"], c.want, sub)
		}
	}
}

// TestSubmitTwiceSameAnswer: every body answers the same twice. A
// rejected body is rejected again, with the same status, whether or not
// its digest is new; an accepted one is accepted again under the same
// key, attached to the first job's execution. A body is exactly one
// JSON value: bytes after it are a 400, white space is not.
func TestSubmitTwiceSameAnswer(t *testing.T) {
	s := New(Options{})
	t.Cleanup(func() { s.Close() })
	h := s.Handler()

	frontier := anonRequest(t)
	frontier.Kind, frontier.IncludeMasked = KindFrontier, false
	badAlgorithm := anonRequest(t)
	badAlgorithm.Algorithm = "quantum"
	malformed := anonRequest(t)
	malformed.CSV = "Age,Zip\n1,2,3,4\n"
	tooWide := anonRequest(t)
	age := tooWide.Job.Hierarchies["Age"]
	age.Levels[0].Width, age.Levels[0].Max = 1, 1<<40
	tooWide.Job.Hierarchies["Age"] = age
	fileHier := anonRequest(t)
	fileHier.Job.Hierarchies["Sex"] = config.HierarchySpec{Type: "tree", File: "/etc/passwd"}
	check := marshal(t, checkRequest())

	cases := []struct {
		name   string
		body   []byte
		status int
	}{
		{"unknown kind", marshal(t, JobRequest{Kind: "transmogrify", CSV: patientsCSV}), 400},
		{"missing kind", marshal(t, JobRequest{CSV: patientsCSV}), 400},
		{"missing csv", marshal(t, JobRequest{Kind: KindCheck, QIs: []string{"Sex"}}), 400},
		{"check without qi", marshal(t, JobRequest{Kind: KindCheck, CSV: patientsCSV}), 400},
		{"bad k", marshal(t, JobRequest{Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, K: 1}), 400},
		{"p without conf", marshal(t, JobRequest{Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"}, K: 3, P: 2}), 400},
		{"negative budget", marshal(t, JobRequest{Kind: KindCheck, CSV: patientsCSV, QIs: []string{"Sex"},
			Budget: BudgetRequest{MaxNodes: -5}}), 400},
		{"anonymize without job", marshal(t, JobRequest{Kind: KindAnonymize, CSV: patientsCSV}), 400},
		{"bad algorithm", marshal(t, badAlgorithm), 400},
		{"malformed csv", marshal(t, malformed), 400},
		{"attack without external", marshal(t, JobRequest{Kind: KindAttack, CSV: patientsCSV, QIs: []string{"Sex"}}), 400},
		{"interval level too wide", marshal(t, tooWide), 400},
		{"file hierarchy", marshal(t, fileHier), 400},
		{"not json", []byte("kind=check"), 400},
		{"bytes after the object", append(bytes.Clone(check), " {}"...), 400},
		{"check", check, 202},
		{"white space after the object", append(bytes.Clone(check), " \n\t"...), 202},
		{"anonymize", marshal(t, anonRequest(t)), 202},
		{"frontier", marshal(t, frontier), 202},
		{"attack", marshal(t, JobRequest{Kind: KindAttack, CSV: patientsCSV,
			ExternalCSV: "Name,Age,ZipCode,Sex\nAlice,25,41076,M\nBob,61,43103,F\n",
			QIs:         []string{"Age", "ZipCode", "Sex"}, Conf: []string{"Illness"}}), 202},
	}
	for _, c := range cases {
		status1, first := serveSubmit(t, h, c.body)
		status2, second := serveSubmit(t, h, c.body)
		if status1 != c.status || status2 != c.status {
			t.Errorf("%s: answered %d, then %d; want %d both times (%v, %v)", c.name, status1, status2, c.status, first, second)
			continue
		}
		if c.status != http.StatusAccepted {
			continue
		}
		if !reflect.DeepEqual(first["key"], second["key"]) {
			t.Errorf("%s: keys %v, then %v", c.name, first["key"], second["key"])
		}
		if second["cached"] != true && second["coalesced"] != true {
			t.Errorf("%s: second submit neither cached nor coalesced: %v", c.name, second)
		}
	}
}

// TestBodyIndexBounded: the digest index holds one entry per indexed
// execution and loses it with the execution, so it is bounded by the
// result cache. A body whose execution was evicted runs a new search.
func TestBodyIndexBounded(t *testing.T) {
	s, ts := newTestServer(t, Options{ResultCacheEntries: 2})
	var bodies [][]byte
	for i := 0; i < 10; i++ {
		req := checkRequest()
		req.CSV = patientsRows(20 + i)
		body := marshal(t, req)
		bodies = append(bodies, body)
		status, sub := postRaw(t, ts, body)
		if status != http.StatusAccepted {
			t.Fatalf("body %d: submit answered %d (%v)", i, status, sub)
		}
		pollDone(t, ts, sub["id"].(string))
	}
	s.mu.Lock()
	nb, ne := len(s.bodies), len(s.execs)
	for sum, ex := range s.bodies {
		if ex.body != sum || s.execs[ex.key] != ex {
			t.Errorf("digest %x names an execution that is not indexed under it and its key", sum[:4])
		}
	}
	_, firstIndexed := s.bodies[sha256.Sum256(bodies[0])]
	s.mu.Unlock()
	if nb > ne || ne > 2 {
		t.Errorf("%d digest entries over %d executions, want at most as many digests as executions and at most 2 executions", nb, ne)
	}
	if firstIndexed {
		t.Fatal("the first body's digest outlived the eviction of its execution")
	}

	before := counters(t, ts)["searches"]
	status, sub := postRaw(t, ts, bodies[0])
	if status != http.StatusAccepted || sub["cached"] == true || sub["coalesced"] == true {
		t.Fatalf("evicted body: status %d %v, want a new execution", status, sub)
	}
	pollDone(t, ts, sub["id"].(string))
	if after := counters(t, ts)["searches"]; after != before+1 {
		t.Errorf("evicted body ran %v searches, want 1", after-before)
	}
}

// TestReadBodyReserveFollowsArrival: readBody returns every body whole,
// whatever its length next to the first chunk and the reserve cap, and
// whether its length is declared or not. A body shorter than the first
// chunk reserves no more than the chunk, however long its declared
// length: a client that declares 64 MiB and stalls pins 16 KiB.
func TestReadBodyReserveFollowsArrival(t *testing.T) {
	for _, n := range []int{0, 1, firstBodyChunk - 1, firstBodyChunk, firstBodyChunk + 1,
		maxBodyReserve, maxBodyReserve + 1, 3 * maxBodyReserve} {
		body := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n]
		for _, declared := range []int64{-1, int64(n), 64 << 20} {
			got, err := readBody(bytes.NewReader(body), declared)
			if err != nil || !bytes.Equal(got, body) {
				t.Errorf("%d bytes declared as %d: read %d bytes, err %v", n, declared, len(got), err)
			}
			if n < firstBodyChunk && declared > 0 && cap(got) >= 2*firstBodyChunk {
				t.Errorf("%d bytes declared as %d reserved %d bytes", n, declared, cap(got))
			}
		}
	}
}
