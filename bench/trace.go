package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// user operation share Op; Parent is the span that caused this one (0 for
// a root). Names are "<layer>.<call>", the layer being a package of the
// repository (or "bench" for the benchmark's own grouping spans).
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run keeps tracing out of its timings.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes a span and returns how long it lasted.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := t.begin(name, parent, op)
	f()
	return t.end(id)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelfMillis sums, per layer, each span's self time: its duration
// minus the part covered by its direct children.
func (t *tracer) layerSelfMillis() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.dur()
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.dur() - child[s.ID]
		if self < 0 { // children that ran in parallel can cover more than the parent
			self = 0
		}
		out[layerOf(s.Name)] += float64(self) / float64(time.Millisecond)
	}
	return out
}

// chromeEvent is the Chrome-trace event shape the repository's trace.go
// emits (and scripts/tracecheck validates): one "X" event per span on a
// thread row of its own, named by an "M" thread_name record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// write exports the spans as a Chrome trace that Perfetto and
// chrome://tracing load.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, 2*len(t.spans))
	for _, s := range t.spans {
		events = append(events,
			chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: s.ID,
				Args: map[string]any{"name": fmt.Sprintf("#%d %s", s.ID, s.Name)}},
			chromeEvent{Name: s.Name, Cat: layerOf(s.Name), Phase: "X", PID: 1, TID: s.ID,
				TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Args: map[string]any{"span": s.ID, "parent": s.Parent, "op": s.Op}})
	}
	t.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
