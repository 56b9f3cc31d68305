package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around an
// exported function of that layer. Spans of one request share Req; Parent
// is the span that caused this one (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; write saves them once
// the run is over, so the traced window pays no I/O. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newReq allocates a request id.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// spanBuf is one goroutine's span buffer; flush hands it to the tracer.
// A nil *spanBuf records nothing.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf { return &spanBuf{t: t} }

// newReq allocates a request id (0 when untraced).
func (b *spanBuf) newReq() int64 {
	if b == nil {
		return 0
	}
	return b.t.newReq()
}

// add records a finished span.
func (b *spanBuf) add(name string, parent, req int64, start, end time.Time) {
	b.addWithID(b.reserve(), name, parent, req, start, end)
}

// reserve allocates an id for a parent span that is recorded after its
// children (a transaction's statements finish before the transaction).
func (b *spanBuf) reserve() int64 {
	if b == nil || b.t == nil {
		return 0
	}
	return b.t.ids.Add(1)
}

// addWithID records a span under an id from reserve.
func (b *spanBuf) addWithID(id int64, name string, parent, req int64, start, end time.Time) {
	if b == nil || b.t == nil {
		return
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(b.t.epoch).Nanoseconds(), End: end.Sub(b.t.epoch).Nanoseconds()})
}

func (b *spanBuf) flush() {
	if b == nil || b.t == nil {
		return
	}
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
	b.spans = nil
}

// byName returns the durations of every span with this name, in µs.
func (t *tracer) byName(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, micros(s.dur()))
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
