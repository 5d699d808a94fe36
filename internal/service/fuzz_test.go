package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"power5prio/internal/engine"
)

// FuzzSubmitRequest drives the daemon's submit endpoint with arbitrary
// bodies over a synthetic backend (nothing simulates). The handler must
// never panic and must answer with one of its documented statuses;
// every 200 must stream a header, exactly one result event per request
// index under that job's key (skipped or not), and a closing done
// event; and no exchange may leave queued jobs or a tenant behind.
func FuzzSubmitRequest(f *testing.F) {
	const maxQueue = 4
	body := func(req SubmitRequest) []byte { return mustJSON(f, req) }
	withProtocol := func(req SubmitRequest, protocol string) SubmitRequest {
		req.Protocol = protocol
		return req
	}
	valid := body(newSubmitRequest("c", nil, svcJobs(2, 0)))
	drifted := newSubmitRequest("d", nil, svcJobs(1, 10))
	drifted.Jobs[0].Key = "sha256:0000"
	outOfRange := newSubmitRequest("i", nil, svcJobs(2, 50))
	outOfRange.Jobs[1].Profile = len(outOfRange.Profiles)
	negative := newSubmitRequest("j", nil, svcJobs(2, 60))
	negative.Jobs[0].Profile = -1
	for _, seed := range [][]byte{
		valid,
		body(drifted),
		body(withProtocol(newSubmitRequest("c", nil, svcJobs(1, 20)), "p5queue/v0")),
		valid[:len(valid)/2],
		[]byte(`{}`),
		body(newSubmitRequest("e", nil, nil)),
		body(newSubmitRequest("f", nil, svcJobs(maxQueue+1, 30))),
		// A v3 client's body: the protocol before skipped results became
		// the one resubmit signal.
		body(withProtocol(newSubmitRequest("g", nil, svcJobs(1, 40)), "p5queue/v3")),
		// A v4 client's body: every job a full WireJob, no profile table.
		[]byte(`{"protocol":"p5queue/v4","client":"h","estimate":{"always":true},"jobs":[{"key":"sha256:0000","job":{"IterScale":1}}]}`),
		body(outOfRange),
		body(negative),
	} {
		f.Add(seed)
	}

	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{MaxQueue: maxQueue})
	ctx, cancel := context.WithCancel(context.Background())
	go d.Run(ctx)
	f.Cleanup(func() {
		d.Close()
		cancel()
	})
	h := d.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, SubmitPath, bytes.NewReader(body)))
		defer func() {
			if st := d.Stats(); st.QueueDepth != 0 || st.Tenants != 0 {
				t.Fatalf("status %d left queue depth %d and %d tenants for body %.200q", rec.Code, st.QueueDepth, st.Tenants, body)
			}
		}()
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for body %.200q", rec.Code, body)
		}
		// The handler decodes the first JSON value of the body, so the
		// request it answered is what the same decoder reads.
		var req SubmitRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		dec := json.NewDecoder(rec.Body)
		var events []Event
		for {
			var ev Event
			if err := dec.Decode(&ev); err != nil {
				break
			}
			events = append(events, ev)
		}
		if len(events) < 2 || events[0].Type != EventHeader || events[len(events)-1].Type != EventDone {
			t.Fatalf("stream %+v does not run header … done", events)
		}
		seen := make([]bool, len(req.Jobs))
		for _, ev := range events[1 : len(events)-1] {
			if ev.Type != EventResult || ev.Result == nil || ev.Index < 0 || ev.Index >= len(req.Jobs) || seen[ev.Index] {
				t.Fatalf("stray or repeated event %+v for %d jobs", ev, len(req.Jobs))
			}
			seen[ev.Index] = true
			if ev.Result.Key != req.Jobs[ev.Index].Key {
				t.Fatalf("result %d has key %q, want %q", ev.Index, ev.Result.Key, req.Jobs[ev.Index].Key)
			}
		}
		if n := len(events) - 2; n != len(req.Jobs) {
			t.Fatalf("%d result events for %d jobs", n, len(req.Jobs))
		}
	})
}
