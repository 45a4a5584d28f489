package ledger

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one traced interval: a child process or a probe call. Unit is the
// identifier shared by the spans of one workload round or probe.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	StartNS int64  `json:"start_ns"` // since the tracer was made
	EndNS   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until Write. A nil Tracer records nothing,
// which is how the untraced pass runs.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts a trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns the function that ends it, with the
// span's id for its children.
func (t *Tracer) Start(name, unit string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Unit: unit, StartNS: time.Since(t.t0).Nanoseconds()})
	return id, func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = now
		t.mu.Unlock()
	}
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write dumps the spans as JSON.
func (t *Tracer) Write(path string) error {
	data, err := json.MarshalIndent(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
