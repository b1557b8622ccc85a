package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused it (0 for a
// root). Start and End are nanoseconds since the tracer was made.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0   time.Time
	ids  atomic.Int64
	reqs atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// req returns a fresh request ID.
func (t *tracer) req() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// add records one finished span and returns its ID.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// durations returns the durations of every span with the given name,
// in milliseconds.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// lessTwin returns, for every span named name, its duration minus the
// durations of the spans of the same request named in twin, in
// milliseconds. The in-process twin replays a request after its reply
// is in, so this is the server's own cost for the request: the round
// trip less the layers' in-process time for the same work.
func (t *tracer) lessTwin(name string, twin ...string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	want := make(map[string]bool, len(twin))
	for _, c := range twin {
		want[c] = true
	}
	covered := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if want[s.Name] {
			covered[s.Req] += s.dur()
		}
	}
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()-covered[s.Req]))
		}
	}
	return out
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
