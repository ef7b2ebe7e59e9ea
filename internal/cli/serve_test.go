package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"psk/internal/config"
	"psk/internal/obs"
	"psk/internal/serve"
)

// TestExitCodeAgreement pins the service's exit-code constants and its
// HTTP mapping to the CLI convention: the two layers must never drift,
// or a script watching pskcheck and a client watching pskserve would
// disagree about the same verdict.
func TestExitCodeAgreement(t *testing.T) {
	if serve.ExitOK != ExitOK || serve.ExitViolation != ExitViolation || serve.ExitInputError != ExitInputError {
		t.Fatalf("exit constants drifted: serve (%d,%d,%d) vs cli (%d,%d,%d)",
			serve.ExitOK, serve.ExitViolation, serve.ExitInputError,
			ExitOK, ExitViolation, ExitInputError)
	}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"ok", nil, http.StatusOK},
		{"verdict", fmt.Errorf("policy violated"), http.StatusOK},
		{"input", inputErr(fmt.Errorf("bad csv")), http.StatusBadRequest},
		{"wrapped input", fmt.Errorf("ctx: %w", inputErr(fmt.Errorf("bad"))), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := serve.HTTPStatus(ExitCode(c.err)); got != c.want {
			t.Errorf("%s: HTTPStatus(ExitCode) = %d, want %d", c.name, got, c.want)
		}
	}
	// Unknown exit codes are internal failures, never silent successes.
	if got := serve.HTTPStatus(-1); got != http.StatusInternalServerError {
		t.Errorf("HTTPStatus(-1) = %d, want 500", got)
	}
}

// TestPolicyParamsAreInputErrors: an out-of-range ldiv / tclose / alpha
// parameter, or one without confidential attributes, is rejected by the
// input layer of both surfaces — exit 2 from pskanon and pskcheck, 400
// at submit from the service — before any verdict is attempted.
func TestPolicyParamsAreInputErrors(t *testing.T) {
	csvPath, jobPath, _ := writeFixtures(t)
	job, err := config.Parse([]byte(jobJSON))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{})
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()

	negT := -0.5
	cases := []struct {
		name   string
		flags  []string // nil: the CLI cannot spell it (a negative -tclose means off)
		noConf bool
		ldiv   int
		tclose *float64
		alpha  float64
	}{
		{name: "alpha above 1", flags: []string{"-alpha", "1.5"}, alpha: 1.5},
		{name: "negative alpha", flags: []string{"-alpha", "-0.5"}, alpha: -0.5},
		{name: "negative l", flags: []string{"-ldiv", "-1"}, ldiv: -1},
		{name: "negative t", tclose: &negT},
		{name: "l without conf", flags: []string{"-ldiv", "2"}, noConf: true, ldiv: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := &smokeClient{t: t, base: hs.URL, c: hs.Client()}
			if c.flags != nil {
				var out, errw strings.Builder
				if !c.noConf {
					err := Anon(append([]string{"-in", csvPath, "-job", jobPath}, c.flags...), &out, &errw)
					if ExitCode(err) != ExitInputError {
						t.Errorf("pskanon: exit %d (%v), want %d", ExitCode(err), err, ExitInputError)
					}
				}
				args := []string{"-in", csvPath, "-qi", "Age,ZipCode,Sex", "-k", "2"}
				if !c.noConf {
					args = append(args, "-conf", "Illness")
				}
				err := Check(append(args, c.flags...), &out, &errw)
				if ExitCode(err) != ExitInputError {
					t.Errorf("pskcheck: exit %d (%v), want %d", ExitCode(err), err, ExitInputError)
				}
			}
			conf := []string{"Illness"}
			if c.noConf {
				conf = nil
			}
			check := serve.JobRequest{Kind: serve.KindCheck, CSV: patientsCSV,
				QIs: []string{"Age", "ZipCode", "Sex"}, Conf: conf, K: 2,
				LDiv: c.ldiv, TClose: c.tclose, Alpha: c.alpha}
			if status, raw := sc.do("POST", "/v1/jobs", check); status != http.StatusBadRequest {
				t.Errorf("service check: got %d, want 400: %s", status, raw)
			}
			if c.noConf {
				return
			}
			anon := serve.JobRequest{Kind: serve.KindAnonymize, CSV: patientsCSV, Job: job,
				LDiv: c.ldiv, TClose: c.tclose, Alpha: c.alpha}
			if status, raw := sc.do("POST", "/v1/jobs", anon); status != http.StatusBadRequest {
				t.Errorf("service anonymize: got %d, want 400: %s", status, raw)
			}
		})
	}
	sc := &smokeClient{t: t, base: hs.URL, c: hs.Client()}
	if n := sc.counters()["searches"]; n != 0 {
		t.Errorf("rejected requests reached the engine: searches = %d", n)
	}
}

// TestSlowHeaderClientDisconnected: a client that never finishes its
// request line is disconnected after obs.ReadHeaderTimeout by both
// listeners, pskserve's and the live observatory's, instead of holding
// a connection and its goroutine for as long as it likes.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	t.Parallel()
	listeners := []struct {
		name  string
		start func(t *testing.T) (addr string)
	}{
		{"pskserve", func(t *testing.T) string {
			stderr := newObsAddrWriter()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				done <- ServeContext(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, io.Discard, stderr)
			}()
			t.Cleanup(func() {
				cancel()
				<-done
			})
			select {
			case addr := <-stderr.addrC:
				return addr
			case err := <-done:
				t.Fatalf("ServeContext finished before announcing: %v\nstderr: %s", err, stderr.String())
			case <-time.After(10 * time.Second):
				t.Fatalf("no listen address announced\nstderr: %s", stderr.String())
			}
			return ""
		}},
		{"observatory", func(t *testing.T) string {
			srv, err := obs.NewServer("127.0.0.1:0", obs.NewRecorder(), nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return srv.Addr()
		}},
	}
	for _, l := range listeners {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			conn, err := net.Dial("tcp", l.start(t))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("GET /heal")); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := conn.SetReadDeadline(start.Add(obs.ReadHeaderTimeout + 5*time.Second)); err != nil {
				t.Fatal(err)
			}
			// The server may answer 400 before it closes; only a read
			// that outlives the timeout means the connection was kept.
			_, err = io.ReadAll(conn)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection still open %v after a partial request line", time.Since(start).Round(time.Second))
			}
		})
	}
}

// TestSlowBodyClientDisconnected: a client that declares a 1 MiB submit
// body, sends 16 KiB of it and stalls is disconnected by pskserve after
// obs.ReadHeaderTimeout instead of pinning its buffer for as long as it
// likes. A prompt submit to the same server still gets its 202, and so
// does one whose body arrives 16 KiB at a time over longer than that
// deadline, never pausing for as long.
func TestSlowBodyClientDisconnected(t *testing.T) {
	t.Parallel()
	stderr := newObsAddrWriter()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ServeContext(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, io.Discard, stderr)
	}()
	defer func() {
		cancel()
		<-done
	}()
	var addr string
	select {
	case addr = <-stderr.addrC:
	case err := <-done:
		t.Fatalf("ServeContext finished before announcing: %v\nstderr: %s", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("no listen address announced\nstderr: %s", stderr.String())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, 1<<20)
	if _, err := conn.Write(bytes.Repeat([]byte(" "), 16<<10)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()

	job, err := config.Parse([]byte(jobJSON))
	if err != nil {
		t.Fatal(err)
	}
	req := serve.JobRequest{Kind: serve.KindAnonymize, CSV: patientsCSV, Job: job}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// Nine pieces of leading white space, each sent an eighth of the
	// deadline after the last, then the request.
	slow := append(bytes.Repeat([]byte(" "), 9*16<<10), payload...)
	trickled := make(chan error, 1)
	go func() { trickled <- trickleSubmit(addr, slow, 16<<10, obs.ReadHeaderTimeout/8) }()

	sc := &smokeClient{t: t, base: "http://" + addr, c: &http.Client{Timeout: 30 * time.Second}}
	if status, raw := sc.do("POST", "/v1/jobs", req); status != http.StatusAccepted {
		t.Errorf("prompt submit beside a stalled one: got %d, want 202: %s", status, raw)
	}

	if err := conn.SetReadDeadline(start.Add(obs.ReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 400 before it closes; only a read that
	// outlives the deadline means the connection was kept.
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled body", time.Since(start).Round(time.Second))
	}
	if held := time.Since(start); held < obs.ReadHeaderTimeout-time.Second {
		t.Errorf("stalled body cut off after %v, before the %v deadline", held.Round(time.Millisecond), obs.ReadHeaderTimeout)
	}
	if err := <-trickled; err != nil {
		t.Errorf("body sent 16 KiB at a time: %v", err)
	}
}

// trickleSubmit posts body to addr's /v1/jobs in pieces of piece bytes,
// pause apart, and fails unless the answer is 202 and the body took
// longer than obs.ReadHeaderTimeout to send.
func trickleSubmit(addr string, body []byte, piece int, pause time.Duration) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, len(body))
	for len(body) > 0 {
		n := min(piece, len(body))
		if _, err := conn.Write(body[:n]); err != nil {
			return err
		}
		if body = body[n:]; len(body) > 0 {
			time.Sleep(pause)
		}
	}
	if took := time.Since(start); took <= obs.ReadHeaderTimeout {
		return fmt.Errorf("sent in %v, within the %v deadline", took.Round(time.Millisecond), obs.ReadHeaderTimeout)
	}
	if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("got %d, want 202", resp.StatusCode)
	}
	return nil
}

// smokeClient wraps the tiny HTTP vocabulary the smoke test needs.
type smokeClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func (s *smokeClient) do(method, path string, body any) (int, json.RawMessage) {
	s.t.Helper()
	var rd bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			s.t.Fatal(err)
		}
		rd = *bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, s.base+path, &rd)
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := s.c.Do(req)
	if err != nil {
		s.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		s.t.Fatal(err)
	}
	return resp.StatusCode, json.RawMessage(buf.Bytes())
}

func (s *smokeClient) submit(req serve.JobRequest) string {
	s.t.Helper()
	status, raw := s.do("POST", "/v1/jobs", req)
	if status != http.StatusAccepted {
		s.t.Fatalf("submit: got %d: %s", status, raw)
	}
	var payload struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil || payload.ID == "" {
		s.t.Fatalf("submit: no id in %s", raw)
	}
	return payload.ID
}

type smokeStatus struct {
	State      string          `json:"state"`
	StopReason string          `json:"stop_reason"`
	ExitCode   *int            `json:"exit_code"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
	Report     json.RawMessage `json:"report"`
}

func (s *smokeClient) pollDone(id string) (int, smokeStatus) {
	s.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, raw := s.do("GET", "/v1/jobs/"+id, nil)
		var st smokeStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			s.t.Fatalf("status %s: %v in %s", id, err, raw)
		}
		if st.State == "queued" || st.State == "running" ||
			(st.State == "cancelled" && st.StopReason == "") {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return code, st
	}
	s.t.Fatalf("job %s never finished", id)
	return 0, smokeStatus{}
}

func (s *smokeClient) counters() map[string]int64 {
	s.t.Helper()
	_, raw := s.do("GET", "/metrics", nil)
	var m serve.ServiceMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		s.t.Fatalf("metrics: %v in %s", err, raw)
	}
	return m.Counters
}

// TestServeSmoke is the end-to-end gate the CI serve job runs via
// `make serve-smoke`: the real pskserve entry point bound to an
// ephemeral port, driven over real HTTP through the whole contract —
// verdict exit codes, single-flight dedup pinned via /metrics,
// queued-job cancellation with the cancelled StopReason, the per-job
// /metrics scrape byte-equal to the embedded report, and the service's
// telemetry counters equal to a pskanon -metrics-json run of the same
// inputs.
func TestServeSmoke(t *testing.T) {
	stderr := newObsAddrWriter()
	var stdout strings.Builder
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ServeContext(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, &stdout, stderr)
	}()

	var addr string
	select {
	case addr = <-stderr.addrC:
	case err := <-done:
		t.Fatalf("ServeContext finished before announcing: %v\nstderr: %s", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("no listen address announced\nstderr: %s", stderr.String())
	}
	sc := &smokeClient{t: t, base: "http://" + addr, c: &http.Client{Timeout: 30 * time.Second}}

	// Liveness before anything else.
	if code, raw := sc.do("GET", "/healthz", nil); code != 200 || !bytes.Contains(raw, []byte("serving")) {
		t.Fatalf("healthz: %d %s", code, raw)
	}

	// Verdicts over HTTP follow the CLI exit-code convention: both a
	// satisfied and a violated check are 200s, distinguished by exit_code.
	id := sc.submit(serve.JobRequest{
		Kind: serve.KindCheck, CSV: patientsCSV,
		QIs: []string{"Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	if code, st := sc.pollDone(id); code != 200 || st.ExitCode == nil || *st.ExitCode != ExitOK {
		t.Fatalf("satisfied check: code %d status %+v", code, st)
	}
	id = sc.submit(serve.JobRequest{
		Kind: serve.KindCheck, CSV: patientsCSV,
		QIs: []string{"Age", "ZipCode", "Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	if code, st := sc.pollDone(id); code != 200 || st.ExitCode == nil || *st.ExitCode != ExitViolation {
		t.Fatalf("violated check: code %d status %+v", code, st)
	}
	if code, raw := sc.do("POST", "/v1/jobs", serve.JobRequest{Kind: "bogus"}); code != http.StatusBadRequest {
		t.Fatalf("input error: code %d %s", code, raw)
	}

	// Single-flight: concurrent tenants submitting the identical
	// anonymize request get exactly one underlying search.
	job, err := config.Parse([]byte(jobJSON))
	if err != nil {
		t.Fatal(err)
	}
	anonReq := serve.JobRequest{Kind: serve.KindAnonymize, CSV: patientsCSV, Job: job}
	before := sc.counters()
	const tenants = 6
	ids := make([]string, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(anonReq)
			resp, err := sc.c.Post(sc.base+"/v1/jobs", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			var payload struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&payload)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Errorf("tenant %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			ids[i] = payload.ID
		}(i)
	}
	wg.Wait()
	var firstResult string
	for _, id := range ids {
		code, st := sc.pollDone(id)
		if code != 200 || st.State != "done" || st.StopReason != "done" {
			t.Fatalf("anonymize %s: code %d status %+v", id, code, st)
		}
		if firstResult == "" {
			firstResult = string(st.Result)
		} else if firstResult != string(st.Result) {
			t.Errorf("tenants read different results for one key")
		}
	}
	after := sc.counters()
	if got := after["searches"] - before["searches"]; got != 1 {
		t.Errorf("single-flight: %d searches for %d identical tenants, want 1", got, tenants)
	}
	if got := (after["coalesced"] - before["coalesced"]) + (after["cache_hits"] - before["cache_hits"]); got != tenants-1 {
		t.Errorf("coalesced+cache_hits delta = %d, want %d", got, tenants-1)
	}

	// Byte-identity: the per-job /metrics scrape is the embedded report.
	_, st := sc.pollDone(ids[0])
	if len(st.Report) == 0 {
		t.Fatal("done job carries no report")
	}
	_, scrape := sc.do("GET", "/v1/jobs/"+ids[0]+"/metrics", nil)
	var embedded bytes.Buffer
	if err := json.Indent(&embedded, st.Report, "", "  "); err != nil {
		t.Fatal(err)
	}
	embedded.WriteByte('\n')
	if !bytes.Equal(embedded.Bytes(), scrape) {
		t.Errorf("per-job /metrics differs from the embedded report:\nscrape %d bytes\nembedded %d bytes",
			len(scrape), embedded.Len())
	}

	// The same run through pskanon -metrics-json must agree on every
	// scheduling-independent counter: one engine, two front doors.
	csvPath, jobPath, dir := writeFixtures(t)
	metricsPath := filepath.Join(dir, "metrics.json")
	var aout, aerr strings.Builder
	if err := Anon([]string{"-in", csvPath, "-job", jobPath, "-out", filepath.Join(dir, "masked.csv"),
		"-metrics-json", metricsPath, "-workers", "1"}, &aout, &aerr); err != nil {
		t.Fatalf("Anon: %v\nstderr: %s", err, aerr.String())
	}
	var serveRep, cliRep obs.Report
	if err := json.Unmarshal(st.Report, &serveRep); err != nil {
		t.Fatal(err)
	}
	if err := unmarshalFile(metricsPath, &cliRep); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serveRep.DeterministicCounters(), cliRep.DeterministicCounters()) {
		t.Errorf("service and CLI runs disagree on deterministic counters:\nserve: %v\ncli:   %v",
			serveRep.DeterministicCounters(), cliRep.DeterministicCounters())
	}

	// Cancellation: hold the single worker with a blocker whose run time
	// is its timeout_ms budget, whatever the engine's speed: an Incognito
	// search over 16 flat quasi-identifiers, which cannot finish inside
	// it. Queue a victim behind it, cancel the victim while queued, and
	// read the cancelled StopReason.
	blockerReq := wideIncognito(16, 300)
	blockerReq.Budget.TimeoutMS = 2000
	victimReq := wideIncognito(16, 300)
	victimReq.Budget.TimeoutMS = 2001
	cancelBefore := sc.counters()
	blocker := sc.submit(blockerReq)
	victim := sc.submit(victimReq)
	if code, raw := sc.do("DELETE", "/v1/jobs/"+victim, nil); code != 200 {
		t.Fatalf("cancel queued job: %d %s", code, raw)
	}
	if code, _ := sc.do("DELETE", "/v1/jobs/"+victim, nil); code != http.StatusConflict {
		t.Errorf("second cancel: %d, want 409", code)
	}
	if _, st := sc.pollDone(victim); st.State != "cancelled" || st.StopReason != "cancelled" {
		t.Errorf("victim state %q stop %q, want cancelled/cancelled", st.State, st.StopReason)
	}
	if _, st := sc.pollDone(blocker); st.State != "done" || st.StopReason != "deadline" {
		t.Fatalf("blocker %s ended %q/%q, want done/deadline: %s", blocker, st.State, st.StopReason, st.Error)
	}
	cancelAfter := sc.counters()
	if got := cancelAfter["searches"] - cancelBefore["searches"]; got != 1 {
		t.Errorf("cancelled job touched the engine: searches delta %d, want 1 (the blocker)", got)
	}
	if cancelAfter["cancelled"] <= cancelBefore["cancelled"] {
		t.Errorf("cancelled counter not bumped: %v -> %v", cancelBefore["cancelled"], cancelAfter["cancelled"])
	}

	// Drain: cancelling the context shuts the entry point down cleanly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeContext: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never drained")
	}
	if !strings.Contains(stderr.String(), "pskserve: draining") {
		t.Errorf("no drain announcement:\n%s", stderr.String())
	}
}

// wideIncognito is an Incognito anonymize job over n quasi-identifiers
// with flat hierarchies and rows rows (internal/serve's test helper of
// the same name): its lattice has 2^n nodes and its subset passes
// visit every QI subset. At n = 16 and 300 rows the search is still
// running after 20 s on a 2-vCPU container, ten times the smoke test's
// blocker budget.
func wideIncognito(n, rows int) serve.JobRequest {
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
	return serve.JobRequest{Kind: serve.KindAnonymize, CSV: csv.String(), Job: job, Algorithm: "incognito"}
}

func unmarshalFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
