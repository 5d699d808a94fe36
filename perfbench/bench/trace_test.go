package bench

import (
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 20, End: 25},  // inside a
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130}, // runs past the parent
		{ID: 6, Parent: 2, Name: "a.child", Start: 15, End: 35},
		{ID: 7, Name: "other", Start: 0, End: 5},
	}
	self := SelfTime(spans)
	want := map[int]time.Duration{
		1: 100 - (50 + 10), // children cover [10,60] and [90,100]
		2: 30 - 20,
		3: 30,
		4: 5,
		5: 40,
		6: 20,
		7: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	by := SelfByName(append(spans, Span{ID: 8, Name: "c", Start: 200, End: 203}))
	if by["c"] != 8 {
		t.Errorf("self time by name c = %v, want 8", by["c"])
	}
}

func TestRecorderBeginNests(t *testing.T) {
	r := NewRecorder()
	root, endRoot := r.Begin("job", 0, 7)
	child, endChild := r.Begin("build", root, 7)
	endChild()
	endRoot()
	spans := r.Spans()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[root-1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[child-1].Start < spans[root-1].Start || spans[child-1].End > spans[root-1].End {
		t.Errorf("child %+v not inside root %+v", spans[child-1], spans[root-1])
	}
}
