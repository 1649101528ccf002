package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/wrangle"
)

// delivery is one version as the watcher received it.
type delivery struct {
	recv, published time.Time
	changes         wrangle.ChangeSet
	frameBytes      int
}

// watcher is the workload's one change-feed subscriber. It drains every
// version, stamps its receipt, and counts gaps and evictions; the writer
// waits on it by version. While frames is set it also serialises each
// change the way the /watch endpoint frames it, which costs CPU and so is
// part of tracing: the writer sets it for traced ops only.
type watcher struct {
	cancel wrangle.CancelFunc
	done   chan struct{}
	signal chan struct{} // capacity 1: a pending "something arrived" wake-up
	seen   atomic.Uint64
	frames atomic.Bool

	mu                sync.Mutex
	got               map[uint64]delivery
	gaps, evictions   int
	gapsSeen, evsSeen int // already reported by newFaults
}

// watch subscribes to s from version from (the last version the caller
// has seen). A subscription error is returned as is: the benchmark counts
// it as a failed op and never retries.
func watch(ctx context.Context, s *wrangle.Session, from uint64) (*watcher, error) {
	ch, cancel, err := s.Watch(ctx, from)
	if err != nil {
		return nil, err
	}
	w := &watcher{cancel: cancel, done: make(chan struct{}), signal: make(chan struct{}, 1), got: map[uint64]delivery{}}
	w.seen.Store(from)
	go func() {
		defer close(w.done)
		last := from
		for c := range ch {
			recv := time.Now()
			if c.Evicted {
				w.mu.Lock()
				w.evictions++
				w.mu.Unlock()
				w.wake()
				return
			}
			d := delivery{recv: recv, published: c.View.PublishedAt(), changes: c.Changes}
			if w.frames.Load() {
				d.frameBytes = frameSize(c)
			}
			w.mu.Lock()
			if c.Version() != last+1 {
				w.gaps++
			}
			w.got[c.Version()] = d
			w.mu.Unlock()
			last = c.Version()
			w.seen.Store(last)
			w.wake()
		}
	}()
	return w, nil
}

func (w *watcher) wake() {
	select {
	case w.signal <- struct{}{}:
	default:
	}
}

// waitFor blocks until version v was delivered, the feed ended, or the
// timeout passed; it reports whether v arrived.
func (w *watcher) waitFor(v uint64, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for w.seen.Load() < v {
		select {
		case <-w.signal:
		case <-w.done:
			return w.seen.Load() >= v
		case <-timer.C:
			return false
		}
	}
	return true
}

// stop cancels the subscription and waits for the drain goroutine.
func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

func (w *watcher) delivery(v uint64) (delivery, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, ok := w.got[v]
	return d, ok
}

// newFaults returns the gaps and evictions seen since its last call.
func (w *watcher) newFaults() (gaps, evictions int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	gaps, evictions = w.gaps-w.gapsSeen, w.evictions-w.evsSeen
	w.gapsSeen, w.evsSeen = w.gaps, w.evictions
	return gaps, evictions
}

// frameSize measures one change as a /watch frame: the changed records'
// rows (every row when the change is Full) plus the frame header.
func frameSize(c wrangle.Change) int {
	t, ents := c.View.Table(), c.View.Entities()
	names := t.Schema().Names()
	rows := map[string]map[string]string{}
	add := func(i int, e string) {
		o := make(map[string]string, len(names))
		for j, val := range t.Row(i) {
			if !val.IsNull() {
				o[names[j]] = val.String()
			}
		}
		rows[e] = o
	}
	if c.Changes.Full {
		for i, e := range ents {
			add(i, e)
		}
	} else {
		for _, e := range c.Changes.ChangedRecords {
			if i := sort.SearchStrings(ents, e); i < len(ents) && ents[i] == e {
				add(i, e)
			}
		}
	}
	payload, err := json.Marshal(map[string]any{
		"version": c.Version(), "full": c.Changes.Full,
		"changedShards": c.Changes.ChangedShards, "changedPages": c.Changes.ChangedPages,
		"sharedPages": c.Changes.SharedPages, "removedRecords": c.Changes.RemovedRecords,
		"rows": rows,
	})
	if err != nil {
		panic(fmt.Sprintf("frame encoding: %v", err)) // string maps always encode
	}
	return len(payload)
}
