//go:build !race

// The race detector's instrumentation keeps the compiler from sizing
// bytes.Buffer's growth in one allocation, so the byte count moves under
// -race.

package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestCachedSubmitBytesBoundedByBody: a submit answered from the digest
// index reads its body into a first chunk and then one buffer reserved
// from its Content-Length, and allocates little else, so a repeated
// 250 KB check job costs at most 1.25× its bytes; decoding the body and
// parsing its CSV again cost 6.4×. A request that declares MaxBodyBytes
// but carries a small body reserves only the first chunk: it allocates
// less than 64 KiB, where a reservation from the declared length alone
// took 1 MiB.
func TestCachedSubmitBytesBoundedByBody(t *testing.T) {
	s := New(Options{})
	t.Cleanup(func() { s.Close() })
	h := s.Handler()

	req := checkRequest()
	req.CSV = patientsRows(12000)
	body := marshal(t, req)
	if len(body) < 200<<10 || len(body) > 300<<10 {
		t.Fatalf("body is %d bytes, want about 250 KB", len(body))
	}
	// Both jobs finish before anything is measured, so no worker
	// allocates inside a measured window.
	small := marshal(t, checkRequest())
	for _, b := range [][]byte{body, small} {
		status, sub := serveSubmit(t, h, b)
		if status != http.StatusAccepted {
			t.Fatalf("first submit of a %d-byte body answered %d (%v)", len(b), status, sub)
		}
		s.mu.Lock()
		ex := s.jobs[sub["id"].(string)].exec
		s.mu.Unlock()
		<-ex.done
		if !ex.cacheable() {
			t.Fatalf("first job of a %d-byte body did not complete: %v", len(b), ex.err)
		}
	}

	measure := func(body []byte, declared int64) (bytesPerSubmit float64) {
		t.Helper()
		const n = 8
		reqs := make([]*http.Request, n)
		recs := make([]*httptest.ResponseRecorder, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
			reqs[i].ContentLength = declared
			recs[i] = httptest.NewRecorder()
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range reqs {
			h.ServeHTTP(recs[i], reqs[i])
		}
		runtime.ReadMemStats(&after)
		for _, rec := range recs {
			if rec.Code != http.StatusAccepted {
				t.Fatalf("repeated submit answered %d: %s", rec.Code, rec.Body)
			}
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}

	if got, limit := measure(body, int64(len(body))), 1.25*float64(len(body)); got > limit {
		t.Errorf("a cached submit of a %d-byte body allocated %.0f bytes, bound %.0f (1.25x)", len(body), got, limit)
	} else {
		t.Logf("a cached submit of a %d-byte body allocated %.0f bytes (%.2fx)", len(body), got, got/float64(len(body)))
	}
	if got := measure(small, s.opt.MaxBodyBytes); got >= 64<<10 {
		t.Errorf("a %d-byte body declared as %d bytes allocated %.0f bytes, bound 64 KiB", len(small), s.opt.MaxBodyBytes, got)
	} else {
		t.Logf("a %d-byte body declared as %d bytes allocated %.0f bytes", len(small), s.opt.MaxBodyBytes, got)
	}
}
