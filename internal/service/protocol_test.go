package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"power5prio/internal/engine"
	"power5prio/internal/remote"
)

// postSubmit posts a submit body and returns the status and, for a
// 200, the stream's result events by index (the stream must end with
// done); for any other status, the response text.
func postSubmit(t *testing.T, url string, body []byte) (int, map[int]Event, string) {
	t.Helper()
	resp, err := http.Post(url+SubmitPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return resp.StatusCode, nil, msg.String()
	}
	byIndex := make(map[int]Event)
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		switch ev.Type {
		case EventDone:
			return resp.StatusCode, byIndex, ""
		case EventResult:
			byIndex[ev.Index] = ev
		}
	}
}

// TestSubmitProfileIndexChecked: a row naming a negative or
// out-of-range profile index gets a per-job error naming the index,
// like a key mismatch, while the submission's valid job runs; a table
// with more profiles than jobs is a 400.
func TestSubmitProfileIndexChecked(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{})
	srv := startDaemon(t, d)

	for _, bad := range []int{-1, 2, 1 << 40} {
		req := newSubmitRequest("c", nil, svcJobs(2, 0))
		req.Jobs[0].Profile = bad
		body, _ := json.Marshal(req)
		code, byIndex, msg := postSubmit(t, srv.URL, body)
		if code != http.StatusOK {
			t.Fatalf("profile index %d: status %d (%s), want 200", bad, code, msg)
		}
		want := fmt.Sprintf("profile %d", bad)
		if ev := byIndex[0]; ev.Result == nil || ev.Skipped || !strings.Contains(ev.Result.Err, want) {
			t.Fatalf("profile index %d: job event = %+v, want a final error naming %q", bad, ev, want)
		}
		if ev := byIndex[1]; ev.Result == nil || ev.Result.Err != "" {
			t.Fatalf("profile index %d: valid job event = %+v, want a clean result", bad, ev)
		}
	}

	req := newSubmitRequest("c", nil, svcJobs(1, 0))
	req.Profiles = append(req.Profiles, req.Profiles[0])
	body, _ := json.Marshal(req)
	if code, _, msg := postSubmit(t, srv.URL, body); code != http.StatusBadRequest || !strings.Contains(msg, "2 profiles for 1 jobs") {
		t.Fatalf("2 profiles for 1 job: status %d (%s), want 400 naming the counts", code, msg)
	}
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestSubmitBodyCapped: a submit body larger than MaxQueue admissible
// jobs' allowance is refused with 413 before it is buffered, and the
// same daemon answers the next submission.
func TestSubmitBodyCapped(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{MaxQueue: 2})
	srv := startDaemon(t, d)

	huge := newSubmitRequest(strings.Repeat("x", 2*maxJobBytes+1), nil, svcJobs(1, 0))
	if code, _, msg := postSubmit(t, srv.URL, mustJSON(t, huge)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want 413", code, msg)
	}
	code, byIndex, msg := postSubmit(t, srv.URL, mustJSON(t, newSubmitRequest("c", nil, svcJobs(2, 0))))
	if code != http.StatusOK || len(byIndex) != 2 || byIndex[0].Result.Err != "" || byIndex[1].Result.Err != "" {
		t.Fatalf("submission after the oversized one: status %d (%s), events %+v; want two clean results", code, msg, byIndex)
	}
}

// TestSubmitRejectsV4Body: a p5queue/v4 client's body is a 400 that
// names both protocol versions, so a mixed-version setup fails fast.
func TestSubmitRejectsV4Body(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{})
	srv := startDaemon(t, d)
	j := svcJobs(1, 0)[0]
	v4 := mustJSON(t, map[string]any{
		"protocol": "p5queue/v4", "client": "c",
		"jobs": []remote.WireJob{{Key: engine.JobKey(j).String(), Job: j}},
	})
	code, _, msg := postSubmit(t, srv.URL, v4)
	if code != http.StatusBadRequest || !strings.Contains(msg, "p5queue/v4") || !strings.Contains(msg, ProtocolVersion) {
		t.Fatalf("v4 body: status %d (%s), want 400 naming p5queue/v4 and %s", code, msg, ProtocolVersion)
	}
}

// TestSubmitEncodingSize pins the compact form's gain: a
// single-profile sweep of 8 and of 256 jobs encodes at least 2.5× and
// 3.5× smaller than the same jobs as p5queue/v4 WireJobs.
func TestSubmitEncodingSize(t *testing.T) {
	type v4Request struct {
		Protocol string           `json:"protocol"`
		Client   string           `json:"client"`
		Jobs     []remote.WireJob `json:"jobs"`
	}
	for _, tc := range []struct {
		jobs int
		gain float64
	}{{8, 2.5}, {256, 3.5}} {
		jobs := chipJobs(t, tc.jobs)
		v5 := newSubmitRequest("c", nil, jobs)
		if len(v5.Profiles) != 1 {
			t.Fatalf("%d-job sweep has %d profiles, want 1", tc.jobs, len(v5.Profiles))
		}
		v4 := v4Request{Protocol: "p5queue/v4", Client: "c", Jobs: make([]remote.WireJob, len(jobs))}
		for i, j := range jobs {
			v4.Jobs[i] = remote.WireJob{Key: engine.JobKey(j).String(), Job: j}
		}
		n5, n4 := len(mustJSON(t, v5)), len(mustJSON(t, v4))
		t.Logf("%d jobs: v4 %d bytes, v5 %d bytes (%.2f×)", tc.jobs, n4, n5, float64(n4)/float64(n5))
		if float64(n4) < tc.gain*float64(n5) {
			t.Errorf("%d jobs: v4 %d bytes, v5 %d bytes; want v5 at least %.1f× smaller", tc.jobs, n4, n5, tc.gain)
		}
	}
}

// TestSubmitProfilesExactRoundTrip: the daemon rebuilds every job of a
// submission to its client-side JobKey. Jobs whose profiles differ only
// in a float's sign (0 and -0 compare equal but key differently) get
// separate profiles, and jobs that share one still share it.
func TestSubmitProfilesExactRoundTrip(t *testing.T) {
	jobs := append(chipJobs(t, 3), chipJobs(t, 2)...)
	jobs[3].IterScale = 0
	jobs[4].IterScale = math.Copysign(0, -1)
	req := newSubmitRequest("c", nil, jobs)
	if len(req.Profiles) != 3 {
		t.Fatalf("%d profiles, want 3 (shared, +0, -0)", len(req.Profiles))
	}
	var decoded SubmitRequest
	if err := json.Unmarshal(mustJSON(t, req), &decoded); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		got, err := decoded.job(i)
		if err != nil {
			t.Fatal(err)
		}
		if key := engine.JobKey(got).String(); key != engine.JobKey(j).String() || key != decoded.Jobs[i].Key {
			t.Errorf("job %d rebuilds to key %s, want %s", i, key, decoded.Jobs[i].Key)
		}
	}
}

// TestSameProfileCoversEveryFloat: sameProfile compares IterScale and
// Fame.MAIV bitwise because they are a Profile's only float fields; a
// new float field would need the same treatment.
func TestSameProfileCoversEveryFloat(t *testing.T) {
	var floats []string
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Float32, reflect.Float64:
			floats = append(floats, path)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Profile{}), "Profile")
	if want := []string{"Profile.IterScale", "Profile.Fame.MAIV"}; !reflect.DeepEqual(floats, want) {
		t.Fatalf("Profile float fields = %v, want %v (update sameProfile)", floats, want)
	}
}

// flushCounter counts a handler's flushes. Its first flush blocks
// until gate closes, so a test can hold the handler after the header.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
	first   chan struct{}
	gate    chan struct{}
}

func (f *flushCounter) Flush() {
	f.flushes++
	if f.flushes == 1 {
		close(f.first)
		<-f.gate
	}
	f.ResponseRecorder.Flush()
}

// TestHitOnlySubmitFlushesPerBurst: results are flushed once per burst,
// not per event. The handler is held at its header flush until all 8
// warm results are waiting, so the stream must go out in at most two
// flushes (header, then the results and done), where flushing per
// event makes 10.
func TestHitOnlySubmitFlushesPerBurst(t *testing.T) {
	cb := &countingBackend{}
	eng := engine.NewWith(0, nil, engine.WithBackend(cb))
	jobs := svcJobs(8, 0)
	eng.Run(context.Background(), jobs) // warm the cache
	d := New(eng, nil, Config{})

	fc := &flushCounter{ResponseRecorder: httptest.NewRecorder(), first: make(chan struct{}), gate: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest(http.MethodPost, SubmitPath, bytes.NewReader(mustJSON(t, newSubmitRequest("c", nil, jobs))))
		d.Handler().ServeHTTP(fc, req)
	}()
	<-fc.first // header written; no dispatch loop runs yet
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx)
	defer d.Close()
	waitFor(t, func() bool {
		st := d.Stats()
		return len(st.Clients) == 1 && st.Clients[0].Jobs == int64(len(jobs))
	}, "all 8 results delivered")
	close(fc.gate)
	<-served

	if runs, _ := cb.counts(); runs != 1 {
		t.Fatalf("backend ran %d batches, want only the warming one", runs)
	}
	var events []Event
	dec := json.NewDecoder(fc.Body)
	for {
		var ev Event
		if dec.Decode(&ev) != nil {
			break
		}
		events = append(events, ev)
	}
	if len(events) != len(jobs)+2 || events[len(events)-1].Type != EventDone {
		t.Fatalf("stream has %d events (%+v), want header, %d results, done", len(events), events, len(jobs))
	}
	for _, ev := range events[1 : len(events)-1] {
		if ev.Result == nil || !ev.Result.Cached {
			t.Fatalf("result event %+v, want a cache hit", ev)
		}
	}
	if fc.flushes > 2 {
		t.Fatalf("hit-only submission flushed %d times, want at most 2", fc.flushes)
	}
}

// TestClientReusesConnection: a client reads each submit stream to its
// end, so the HTTP transport returns the connection to its pool and
// sequential submissions, even from fresh clients, share it instead of
// dialling one each.
func TestClientReusesConnection(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx)
	defer d.Close()
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(d.Handler())
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	const submissions = 50
	for i := 0; i < submissions; i++ {
		if _, err := NewClient(srv.URL).RunProgress(nil, svcJobs(3, float64(i%2)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n > 2 {
		t.Fatalf("%d sequential submissions opened %d connections, want at most 2", submissions, n)
	}
}
