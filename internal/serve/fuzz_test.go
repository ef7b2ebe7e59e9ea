package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSubmit drives the submit path with arbitrary request bodies:
// decoding plus Server.prepare, everything handleSubmit does before a
// job reaches the queue, must never panic, and every rejection must be
// an input error (a 400 at submit), never a failure the service would
// report as its own. Seed corpus under testdata/fuzz, taken from the
// request bodies of serve_test.go.
func FuzzSubmit(f *testing.F) {
	s := New(Options{})
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		if _, _, _, err := s.prepare(&req); err != nil && !isInputError(err) {
			t.Fatalf("prepare rejected %q with a non-input error: %v", body, err)
		}
	})
}
