package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, taken by the benchmark
// around its own calls into the layer. Times are ns since the run's epoch.
// Trace groups the spans of one broadcast (its sequence number) or episode;
// Parent is the ID of the span that caused this one, 0 for a root. A layer's
// self time is its span minus the part its children cover.
type span struct {
	ID      int              `json:"id"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Parent  int              `json:"parent"`
	Trace   int              `json:"trace"`
	Count   int              `json:"count,omitempty"`    // operations inside a micro-loop span
	Values  map[string]int64 `json:"counters,omitempty"` // a counter snapshot rides a zero-length span
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is the untraced run. It is used from one goroutine at a
// time.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(name string, start, end int64, parent, trace int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Name: name, StartNs: start, EndNs: end, Parent: parent, Trace: trace})
	return len(l.spans)
}

// timed runs fn inside a span.
func (l *spanLog) timed(name string, trace, count int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if l != nil {
		at := int64(start.Sub(l.epoch))
		id := l.add(name, at, at+int64(d), 0, trace)
		l.spans[id-1].Count = count
	}
	return d
}

// counters records a named snapshot at the current instant.
func (l *spanLog) counters(name string, values map[string]int64) {
	if l == nil {
		return
	}
	at := int64(time.Since(l.epoch))
	id := l.add(name, at, at, 0, 0)
	l.spans[id-1].Values = values
}

// write dumps the log as one JSON object per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < len(l.spans) && err == nil; i++ {
		err = enc.Encode(&l.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
