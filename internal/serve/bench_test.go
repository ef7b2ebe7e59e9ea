package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"psk/internal/serve"
	"psk/internal/serve/loadtest"
)

// BenchmarkServe measures end-to-end job latency over real HTTP in the
// three regimes the result cache creates: cold (a distinct content key
// every iteration, so every submission runs a full search),
// result-cache-hit (an identical resubmission served straight from the
// LRU without ever queueing), and coalesced (a burst of identical
// in-flight requests collapsing onto a single underlying search).
// The numbers are service latencies — HTTP round trips and poll
// intervals included — so the interesting signal is the ratio between
// the regimes, not the absolute ns/op. The repeated-sample service
// figures come from the bench/ service workload.
func BenchmarkServe(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		env := newBenchEnv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.submitWait(b, benchBody(b, int64(1_000_000_000+i)))
		}
	})

	b.Run("result-cache-hit", func(b *testing.B) {
		env := newBenchEnv(b)
		body := benchBody(b, 1_000_000_000)
		env.submitWait(b, body) // warm the result cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.submitWait(b, body)
		}
	})

	b.Run("coalesced", func(b *testing.B) {
		env := newBenchEnv(b)
		const tenants = 8
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh key per iteration; eight tenants race to submit it.
			// One runs, the rest coalesce (or hit the cache if they land
			// after completion). ns/op is burst-to-all-done latency.
			body := benchBody(b, int64(2_000_000_000+i))
			var wg sync.WaitGroup
			for f := 0; f < tenants; f++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					env.submitWait(b, body)
				}()
			}
			wg.Wait()
		}
	})
}

type benchEnv struct {
	ts     *httptest.Server
	client *http.Client
}

func newBenchEnv(b *testing.B) *benchEnv {
	b.Helper()
	srv := serve.New(serve.Options{Workers: 2, QueueSize: 256, ResultCacheEntries: 256})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &benchEnv{ts: ts, client: &http.Client{Timeout: 30 * time.Second}}
}

// benchBody builds an anonymize request over the loadtest dataset.
// maxNodes is far above the lattice size, so it never stops a search —
// it only salts the content key, which is how the cold and coalesced
// regimes force a fresh key per iteration.
func benchBody(b *testing.B, maxNodes int64) []byte {
	b.Helper()
	raw, err := json.Marshal(serve.JobRequest{
		Kind:   serve.KindAnonymize,
		CSV:    loadtest.DatasetCSV(240),
		Job:    loadtest.JobSpec(0),
		Budget: serve.BudgetRequest{MaxNodes: maxNodes},
	})
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// submitWait submits one job and polls it to completion. Safe to call
// from bench goroutines (Errorf only, never FailNow).
func (e *benchEnv) submitWait(b *testing.B, body []byte) {
	resp, err := e.client.Post(e.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Error(err)
		return
	}
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		b.Errorf("submit: status %d err %v (%s)", resp.StatusCode, err, sub.Error)
		return
	}
	for {
		resp, err := e.client.Get(e.ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			b.Error(err)
			return
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			b.Error(err)
			return
		}
		if st.State == "queued" || st.State == "running" {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if st.State != "done" {
			b.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
		}
		return
	}
}
