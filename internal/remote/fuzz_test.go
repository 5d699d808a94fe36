package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
)

// FuzzRunRequest drives a worker's run endpoint with arbitrary bodies:
// the handler must never panic, must answer with one of its documented
// statuses, and every 200 must carry one result per request job, each
// under that job's key.
func FuzzRunRequest(f *testing.F) {
	j := engine.Single(ref(f, microbench.CPUInt), prio.Supervisor, testScale, core.DefaultConfig(), testOptions())
	forged, err := json.Marshal(RunRequest{Protocol: ProtocolVersion, Jobs: []WireJob{{Key: strings.Repeat("ab", 32), Job: j}}})
	if err != nil {
		f.Fatal(err)
	}
	stale, err := json.Marshal(RunRequest{Protocol: "p5remote/v999"})
	if err != nil {
		f.Fatal(err)
	}
	const maxBatch = 2
	over, err := json.Marshal(RunRequest{Protocol: ProtocolVersion, Jobs: make([]WireJob, maxBatch+1)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{forged, stale, forged[:len(forged)/2], over, []byte(`{}`)} {
		f.Add(seed)
	}

	srv := NewServer(ServerConfig{Workers: 1})
	srv.maxBatch = maxBatch
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RunPath, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		// The handler decodes the first JSON value of the body, so the
		// request it answered is what the same decoder reads.
		var req RunRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp RunResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		if len(resp.Results) != len(req.Jobs) {
			t.Fatalf("%d results for %d jobs", len(resp.Results), len(req.Jobs))
		}
		for i, r := range resp.Results {
			if r.Key != req.Jobs[i].Key {
				t.Fatalf("result %d has key %q, want %q", i, r.Key, req.Jobs[i].Key)
			}
		}
	})
}
