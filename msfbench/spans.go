package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation (a solve, a job, the replay) share a
// run id; Parent is 0 for a root span.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // End-Start minus the part its children cover
}

// recorder keeps spans in memory until the run ends. Rank goroutines
// record concurrently, so every access takes the lock. A nil *recorder
// records nothing: untraced code paths call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(run string, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Run: run, Name: name, Start: now, End: now})
	return len(r.spans)
}

// end closes span id and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// selfTimes fills each span's self time — its duration minus the union of
// its children's intervals, so parallel children are not counted twice —
// and returns the self time summed per span name.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]Span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]float64{}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
		byName[s.Name] += s.Self
	}
	return byName
}

// write stores every span, with self times, as JSON at path.
func (r *recorder) write(path string) error {
	self := r.selfTimes()
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Spans      []Span             `json:"spans"`
		SelfByName map[string]float64 `json:"self_s_by_name"`
	}{r.spans, self}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
