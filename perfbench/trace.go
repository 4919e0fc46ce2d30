package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/opt"
)

// The tracer records one span per call into a layer, made from the
// benchmark's own code around public functions. Spans are kept in memory
// and written out when the benchmark ends. With tracing off it only
// measures durations, which the untimed bookkeeping needs anyway.

// spanRec is one recorded span. Spans of one operation (a compile, a
// request) share Op; Parent is the span that caused it (0 = root).
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []spanRec
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// span is an open span; end closes it.
type span struct {
	t      *tracer
	id, op int
	parent int
	name   string
	start  time.Time
}

// start opens a span named name under parent (nil = a new root, which
// opens a new operation).
func (t *tracer) start(name string, parent *span) span {
	s := span{t: t, name: name, start: time.Now()}
	if !t.on {
		return s
	}
	t.mu.Lock()
	t.next++
	s.id = t.next
	t.mu.Unlock()
	if parent != nil {
		s.parent, s.op = parent.id, parent.op
	} else {
		s.op = s.id
	}
	return s
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	d := time.Since(s.start)
	if s.t.on {
		s.t.mu.Lock()
		s.t.append(s.id, s.name, s.parent, s.op, s.start, d)
		s.t.mu.Unlock()
	}
	return d
}

// append records a closed span. The caller holds t.mu.
func (t *tracer) append(id int, name string, parent, op int, start time.Time, d time.Duration) {
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), Dur: int64(d)})
}

// passSink returns an opt.Config.Progress sink that records each
// completed pass invocation as a child span of parent, or nil when
// tracing is off (a nil sink costs the engine nothing).
func (t *tracer) passSink(parent *span) func(opt.PassEvent) {
	if !t.on {
		return nil
	}
	return func(ev opt.PassEvent) {
		t.mu.Lock()
		t.next++
		t.append(t.next, "pass."+ev.Pass, parent.id, parent.op, time.Now().Add(-ev.Last), ev.Last)
		t.mu.Unlock()
	}
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.Dur)
		}
	}
	return d
}

// write stores the spans as JSON under dir, named after the run.
func (t *tracer) write(dir, workload string, seed int64) error {
	if !t.on {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), raw, 0o644)
}
