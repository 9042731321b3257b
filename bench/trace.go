package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the layers themselves are not instrumented). Spans of one
// tick, poll, request or suite execution share Op; Parent is the index
// of the span that caused this one, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int64  `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op, so the measuring loops are
// written once.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent int32, op int64) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, StartNs: now, Parent: parent, Op: op})
	i := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[i].EndNs = now
	r.mu.Unlock()
}

// add records a span whose bounds the caller already measured.
func (r *recorder) add(name string, parent int32, op int64, start, end time.Time) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Op: op,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	i := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// spanCostNs measures what recording one span costs on this host, on a
// scratch recorder, so the traced run can state its own overhead.
func spanCostNs() float64 {
	const n = 200_000
	scratch := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin("calibrate", -1, int64(i)))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// selfTimes folds the spans into per-name self time: a span's duration
// minus the part its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	if r == nil {
		return self
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range r.spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - child[i])
	}
	return self
}

// write dumps the spans as one JSON document.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close() //homesight:ignore unchecked-close — encode error wins
		return fmt.Errorf("writing span file: %w", err)
	}
	return f.Close()
}
