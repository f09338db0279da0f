package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanLog keeps a traced run's spans in memory and writes them out when
// the run ends. Spans are recorded by the benchmark around its calls into
// a layer's public functions; the program itself is not instrumented. A
// nil *spanLog records nothing, so untraced runs pay one nil check.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Spans of one operation (a regeneration, a
// flood, a request) share op; parent names the operation's own span.
type span struct {
	Name   string
	Parent string
	Op     int
	Lane   int // the client or loop that made the call
	Start  time.Duration
	Dur    time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// end records a span that started at start and ends now, returning its
// duration.
func (l *spanLog) end(name, parent string, op, lane int, start time.Time) time.Duration {
	d := time.Since(start)
	l.add(name, parent, op, lane, start, d)
	return d
}

// add records a span measured elsewhere, such as one read back from the
// server's flight recorder.
func (l *spanLog) add(name, parent string, op, lane int, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Op: op, Lane: lane, Start: start.Sub(l.t0), Dur: d})
	l.mu.Unlock()
}

// durations returns every recorded duration of the named span, in
// seconds.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// ui.perfetto.dev.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.Op, "parent": s.Parent},
		}
	}
	l.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
