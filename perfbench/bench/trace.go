package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Per-cycle calls are not recorded one by one:
// they are folded into a single span per job that carries the call
// Count and the time of a sample of them (SampledNs over Sampled calls).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`    // request (query or job) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`

	Count     int64 `json:"count,omitempty"`
	Sampled   int64 `json:"sampled,omitempty"`
	SampledNs int64 `json:"sampled_ns,omitempty"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; IDs start at 1 so that 0 can mean "no parent".
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Now is the recorder's clock: nanoseconds since it started.
func (r *Recorder) Now() int64 { return int64(time.Since(r.t0)) }

// At converts a wall-clock instant to the recorder's clock.
func (r *Recorder) At(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// Add stores a finished span and returns its ID.
func (r *Recorder) Add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// Begin opens a span and returns its ID, which children name as their
// parent, and a function that closes it.
func (r *Recorder) Begin(name string, parent, req int) (id int, end func()) {
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: r.Now()})
	r.mu.Unlock()
	return id, func() {
		t := r.Now()
		r.mu.Lock()
		r.spans[id-1].End = t
		r.mu.Unlock()
	}
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes every span to path as one JSON document.
func (r *Recorder) WriteJSON(path string) error {
	b, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{r.Spans()})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// SelfTime returns each span's duration minus the part of its interval
// that its children cover. Overlapping children (concurrent calls made
// on the span's behalf) are counted once, and a child's time outside
// the parent's interval is ignored.
func SelfTime(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end int64, children []Span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// SelfByName sums self time per span name: the per-layer split of where
// a traced run's wall time went.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTime(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
