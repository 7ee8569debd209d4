package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer of the program. Spans nest: parent
// is the enclosing span and root the request, set-up or extra span the
// call was made for.
type span struct {
	name       string
	parent     int // -1 for a root
	root       int
	req        int
	start, end time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps the spans and counters of a traced run in memory until the
// run ends. Only the benchmark's own goroutine records, so it needs no
// lock. A nil *tracer records nothing, which is how untraced runs and
// untraced rounds call the same code.
type tracer struct {
	epoch    time.Time
	spans    []span
	open     []int
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]float64{}}
}

// beginRoot opens a root span (a request, set-up or extra) for request req.
func (t *tracer) beginRoot(name string, req int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: -1, root: id, req: req, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// begin opens a span nested in the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	p := t.open[len(t.open)-1]
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: p, root: t.spans[p].root, req: t.spans[p].req, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// add accumulates a counter read at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counters[name] += v
	}
}

// timed calls f inside a span named for the layer it enters.
func timed[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	id := t.begin(name)
	v, err := f()
	t.end(id)
	return v, err
}

// selfTimes returns each span's duration minus the part its children
// cover. Children are nested inside their parent and run one after
// another, so that part is the sum of their durations.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// layerTimes sums, per layer name, the self time of the spans under roots
// named root, and the duration of those roots.
func (t *tracer) layerTimes(root string) (self map[string]time.Duration, total time.Duration) {
	self = map[string]time.Duration{}
	st := t.selfTimes()
	for i, s := range t.spans {
		if t.spans[s.root].name != root {
			continue
		}
		self[s.name] += st[i]
		if s.parent < 0 {
			total += s.dur()
		}
	}
	return self, total
}

// writeChrome writes the spans as Chrome trace-event JSON, viewable in
// chrome://tracing or Perfetto.
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
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]int{"req": s.req, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
