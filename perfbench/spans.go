package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one goroutine form a tree
// through parent (the index of the enclosing span in the same lane, -1 at
// the root); the layer is the name's prefix before the first dot.
type span struct {
	name       string
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. Each goroutine records
// into its own lane, so recording takes no lock; lanes are merged at the
// end. A nil *tracer (and the nil *lane it hands out) records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

// lane is one goroutine's span buffer.
type lane struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane returns a fresh buffer for one goroutine.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t, spans: make([]span, 0, 256)}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// since converts a clock reading to the tracer's timeline.
func (l *lane) since(ts time.Time) int64 { return int64(ts.Sub(l.t.epoch)) }

// add records a finished span and returns its index for children to
// name as parent.
func (l *lane) add(name string, parent int32, start, end time.Time) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, start: l.since(start), end: l.since(end)})
	return int32(len(l.spans) - 1)
}

// open starts a span whose children are recorded before it ends; close
// sets its end.
func (l *lane) open(name string, parent int32, start time.Time) int32 {
	return l.add(name, parent, start, start)
}

func (l *lane) close(i int32, end time.Time) {
	if l != nil && i >= 0 {
		l.spans[i].end = l.since(end)
	}
}

// timed records fn as one span and returns its error.
func (l *lane) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.add(name, -1, start, time.Now())
	return err
}

// spanStats aggregates every span of one name.
type spanStats struct {
	count  int64
	selfNS int64
	dur    Hist
}

// summarize aggregates spans by name. A span's self time is its duration
// minus its children's: children of one lane run sequentially inside
// their parent, so they never overlap.
func (t *tracer) summarize() map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		self := make([]int64, len(l.spans))
		for i, s := range l.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range l.spans {
			st := out[s.name]
			if st == nil {
				st = &spanStats{}
				out[s.name] = st
			}
			st.count++
			st.selfNS += self[i]
			st.dur.Record(s.end - s.start)
		}
	}
	return out
}

// layerOf returns a span name's layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write dumps every span as one JSON object per line, lanes in creation
// order, after a first line carrying the run's stamp.
func (t *tracer) write(path string, st stamp) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"stamp": st}); err != nil {
		f.Close()
		return err
	}
	type rec struct {
		Lane    int    `json:"lane"`
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for li, l := range t.lanes {
		for i, s := range l.spans {
			if err := enc.Encode(rec{li, i, s.parent, s.name, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
