package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/wrangle"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary. Spans of one operation share Op; replay
// spans use Op -1. Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
// Spans arrive from engine worker goroutines (provider calls), the
// watcher goroutine and the writer, hence the mutex.
type tracer struct {
	base   time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	return int(t.nextID.Add(1))
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent, op int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
	t.mu.Unlock()
	return id
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the run metadata then every span, one JSON object a line.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// opScope is what the traced provider needs to attribute a call: the
// tracer of the current op (nil while tracing is toggled off) and the
// op's root span.
type opScope struct {
	t          *tracer
	op, parent int
}

// acquisitions records every acquisition as a span of the current op
// and counts it towards the op's acquisition totals.
type acquisitions struct {
	scope    atomic.Pointer[opScope]
	acquired atomic.Int64
	busyNs   atomic.Int64
}

func (p *acquisitions) acquire(name string, n int, start time.Time) {
	end := time.Now()
	p.acquired.Add(int64(n))
	p.busyNs.Add(end.Sub(start).Nanoseconds())
	if sc := p.scope.Load(); sc != nil {
		sc.t.record(0, sc.parent, sc.op, name, start, end)
	}
}

// take returns and resets the acquisition totals since the last take.
func (p *acquisitions) take() (acquired int64, busy time.Duration) {
	return p.acquired.Swap(0), time.Duration(p.busyNs.Swap(0))
}

// tracedProvider is one lane's provider behind the shared tracer. It keeps
// the wrapped provider's concurrent-acquisition opt-in.
type tracedProvider struct {
	*acquisitions
	wrangle.Provider
}

func (p *tracedProvider) ConcurrentAcquire() bool {
	cp, ok := p.Provider.(wrangle.ConcurrentProvider)
	return ok && cp.ConcurrentAcquire()
}

func (p *tracedProvider) List() []*wrangle.Source {
	start := time.Now()
	out := p.Provider.List()
	p.acquire("sources.list", len(out), start)
	return out
}

func (p *tracedProvider) Lookup(id string) *wrangle.Source {
	start := time.Now()
	out := p.Provider.Lookup(id)
	p.acquire("sources.lookup", 1, start)
	return out
}

func (p *tracedProvider) Refresh(id string) *wrangle.Source {
	start := time.Now()
	out := p.Provider.Refresh(id)
	p.acquire("sources.refresh", 1, start)
	return out
}
