package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Parent is the index of the enclosing span, -1 for
// the root.
type span struct {
	Name   string
	Parent int
	Start  time.Time
	End    time.Time
}

// spanLog keeps the spans of a traced run in memory; they are written out
// once, when the run ends. A nil *spanLog records nothing, which is how
// untraced runs stay free of span bookkeeping.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its index.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return len(l.spans) - 1
}

// begin opens a span that finish closes.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Now()
	return l.add(name, parent, now, now)
}

func (l *spanLog) finish(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds since the log was created), which chrome://tracing
// and Perfetto open directly. Each event carries its own and its parent's
// span index in args.
func (l *spanLog) writeChrome(path string) error {
	if l == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
