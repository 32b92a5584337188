package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed public call: its name, its start and end as
// offsets from the tracer's origin, and the span that was open when it
// began (-1 for none).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps spans in memory for the run's traced rounds. A nil
// tracer records nothing, so untraced rounds pay one nil check a call.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of unfinished span indices
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), viewable in Perfetto or
// chrome://tracing. Each event's args carry its id and its parent's.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
