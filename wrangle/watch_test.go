package wrangle_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/wrangle"
)

// recvChange receives one change with a deadline, so a delivery bug fails
// the test instead of hanging it.
func recvChange(t *testing.T, ch <-chan wrangle.Change) wrangle.Change {
	t.Helper()
	select {
	case c, ok := <-ch:
		if !ok {
			t.Fatal("change feed closed unexpectedly")
		}
		return c
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for a change")
	}
	panic("unreachable")
}

func TestWatchBufferOptionValidation(t *testing.T) {
	if _, err := wrangle.New(wrangle.WithWatchBuffer(0)); err == nil {
		t.Error("WithWatchBuffer(0) should be rejected")
	}
	if _, err := wrangle.New(wrangle.WithWatchBuffer(-3)); err == nil {
		t.Error("WithWatchBuffer(-3) should be rejected")
	}
}

// TestWatchBeforeRun proves a subscriber can attach before anything is
// published and receive the first run as its first event.
func TestWatchBeforeRun(t *testing.T) {
	s, err := wrangle.New(wrangle.WithSeed(2), wrangle.WithSyntheticSources(4))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Watch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if s.Watchers() != 1 {
		t.Fatalf("Watchers = %d, want 1", s.Watchers())
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := recvChange(t, ch)
	if c.Version() != 1 || c.View.Origin() != wrangle.OriginRun {
		t.Fatalf("first change = v%d origin %q, want v1 run", c.Version(), c.View.Origin())
	}
	if !c.Changes.Full {
		t.Error("first publication should be a full change")
	}
	if c.View.Table().Len() == 0 {
		t.Error("change view should pin the published table")
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Error("channel should be closed after cancel")
	}
	if s.Watchers() != 0 {
		t.Errorf("Watchers after cancel = %d, want 0", s.Watchers())
	}
}

// TestWatchCatchUpAndCompaction pins the retention boundary the facade
// inherits from the store: fromVersion may reach back exactly to one
// before the oldest retained version; one further is ErrCompacted, and a
// future version is a subscription that waits for its successor.
func TestWatchCatchUpAndCompaction(t *testing.T) {
	s := mustRun(t,
		wrangle.WithSeed(6),
		wrangle.WithSyntheticSources(4),
		wrangle.WithRetainVersions(2),
	)
	for i := 0; i < 3; i++ { // versions 2..4; retained [3 4]
		if _, err := s.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// fromVersion 2: needs 3 and 4, both retained — catch-up replays them.
	ch, cancel, err := s.Watch(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if got := recvChange(t, ch).Version(); got != 3 {
		t.Fatalf("catch-up started at v%d, want v3", got)
	}
	if got := recvChange(t, ch).Version(); got != 4 {
		t.Fatalf("catch-up continued at v%d, want v4", got)
	}

	// fromVersion 1: needs the pruned version 2.
	if _, _, err := s.Watch(context.Background(), 1); !errors.Is(err, wrangle.ErrCompacted) {
		t.Fatalf("Watch(1) = %v, want ErrCompacted", err)
	}
	// View.At agrees: the same typed error for the same staleness.
	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.At(2); !errors.Is(err, wrangle.ErrCompacted) {
		t.Fatalf("View.At(2) = %v, want ErrCompacted", err)
	}
	if _, err := v.At(3); err != nil {
		t.Fatalf("View.At(3) = %v, want retained", err)
	}

	// A future version is not compaction: the subscription waits, and
	// its stream starts with the version after fromVersion.
	ahead, cancelAhead, err := s.Watch(context.Background(), 5)
	if err != nil {
		t.Fatalf("Watch(5) with latest 4 = %v, want a waiting subscription", err)
	}
	defer cancelAhead()
	for i := 0; i < 2; i++ { // versions 5 and 6
		if _, err := s.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvChange(t, ahead).Version(); got != 6 {
		t.Fatalf("waiting subscription started at v%d, want v6", got)
	}
	// Cancelling a subscription that is still waiting closes its channel.
	ctx, stop := context.WithCancel(context.Background())
	waiting, _, err := s.Watch(ctx, 99)
	if err != nil {
		t.Fatalf("Watch(99) = %v, want a waiting subscription", err)
	}
	stop()
	select {
	case c, ok := <-waiting:
		if ok {
			t.Fatalf("cancelled waiting subscription delivered v%d, want close", c.Version())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiting subscription never closed")
	}
}

// TestWatchDeltaContents cross-checks the published ChangeSet against a
// diff the test computes itself from the previous and current versions'
// tables: on a sharded session every record the tables disagree on must
// be listed, nothing else, and page accounting must cover every shard.
func TestWatchDeltaContents(t *testing.T) {
	s := mustRun(t,
		wrangle.WithSeed(5),
		wrangle.WithSyntheticSources(6),
		wrangle.WithIntegrationShards(4),
		wrangle.WithRetainVersions(8),
	)
	prev, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Watch(context.Background(), prev.Version())
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// The same feedback burst view_test uses to force a refusion that
	// actually moves values, then a refresh for a second delta sample.
	rep := s.Report("prices", "price")
	suspect := s.SelectedSources()[0]
	var items []wrangle.Feedback
	for i := 0; i < 5; i++ {
		items = append(items, wrangle.Feedback{
			Kind: wrangle.ValueIncorrect, SourceID: suspect,
			Entity: rep.Lines[0].Entity, Attribute: "price", Cost: 0.5,
		})
	}
	if _, err := s.ApplyFeedback(context.Background(), items...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(context.Background(), suspect); err != nil {
		t.Fatal(err)
	}

	base := prev.Version()
	for want := base + 1; want <= base+2; want++ {
		c := recvChange(t, ch)
		if c.Version() != want {
			t.Fatalf("change v%d, want v%d", c.Version(), want)
		}
		cs := c.Changes
		if cs.Full {
			t.Fatalf("v%d: sharded reaction published a Full change set", want)
		}
		// Page accounting covers every shard exactly once.
		if got := cs.ChangedPages + cs.SharedPages; got != 4 {
			t.Errorf("v%d: %d changed + %d shared pages, want 4 total", want, cs.ChangedPages, cs.SharedPages)
		}
		if len(cs.ChangedShards) != cs.ChangedPages {
			t.Errorf("v%d: %d changed shards listed, %d pages counted", want, len(cs.ChangedShards), cs.ChangedPages)
		}
		// Recompute the record delta from the two pinned versions and
		// demand an exact match.
		gotChanged := map[string]bool{}
		for _, e := range cs.ChangedRecords {
			gotChanged[e] = true
		}
		gotRemoved := map[string]bool{}
		for _, e := range cs.RemovedRecords {
			gotRemoved[e] = true
		}
		wantChanged, wantRemoved := diffViews(prev, c.View)
		for e := range wantChanged {
			if !gotChanged[e] {
				t.Errorf("v%d: record %s changed but not listed", want, e)
			}
		}
		for e := range gotChanged {
			if !wantChanged[e] {
				t.Errorf("v%d: record %s listed as changed but identical", want, e)
			}
		}
		for e := range wantRemoved {
			if !gotRemoved[e] {
				t.Errorf("v%d: record %s removed but not listed", want, e)
			}
		}
		for e := range gotRemoved {
			if !wantRemoved[e] {
				t.Errorf("v%d: record %s listed as removed but present", want, e)
			}
		}
		prev = c.View
	}
}

// diffViews recomputes, from two pinned versions, which entities changed
// (new or different row) and which were removed — the ground truth the
// published ChangeSet must match.
func diffViews(prev, cur *wrangle.View) (changed, removed map[string]bool) {
	changed, removed = map[string]bool{}, map[string]bool{}
	prevRows := map[string]wrangle.Record{}
	for i, e := range prev.Entities() {
		prevRows[e] = prev.Table().Rows()[i]
	}
	seen := map[string]bool{}
	for i, e := range cur.Entities() {
		seen[e] = true
		if old, ok := prevRows[e]; !ok || !old.Equal(cur.Table().Rows()[i]) {
			changed[e] = true
		}
	}
	for e := range prevRows {
		if !seen[e] {
			removed[e] = true
		}
	}
	return changed, removed
}

// TestWatchSlowConsumerNeverBlocksReactions subscribes with a one-slot
// buffer and never drains: every reaction must still complete promptly
// (publication never blocks on a watcher), and the stream must end with
// an explicit eviction notice — monotonic seqs, then Evicted, then close.
func TestWatchSlowConsumerNeverBlocksReactions(t *testing.T) {
	s := mustRun(t,
		wrangle.WithSeed(6),
		wrangle.WithSyntheticSources(4),
		wrangle.WithWatchBuffer(1),
		wrangle.WithRetainVersions(8),
	)
	ch, cancel, err := s.Watch(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Three refreshes with nobody draining: buffer (1) + the one change
	// the facade holds in flight cannot absorb all of them, so the
	// watcher must be evicted — and each Refresh call must return even
	// though the subscriber is stuck.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := s.Refresh(context.Background()); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("reactions blocked on an undrained watcher")
	}

	last, evicted := uint64(1), false
	for c := range ch {
		if got := c.Version(); got <= last {
			t.Fatalf("non-monotonic delivery: v%d after v%d", got, last)
		} else {
			last = got
		}
		if c.Evicted {
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("undrained watcher was not evicted")
	}
	if _, ok := <-ch; ok {
		t.Error("channel should close right after the eviction notice")
	}
	if s.Watchers() != 0 {
		t.Errorf("Watchers after eviction = %d, want 0", s.Watchers())
	}
}

// TestWatchConcurrentWatchers is the change-feed acceptance test: 16
// subscribers range over their feeds while alternating feedback and
// refresh reactions churn the session. Under -race this proves delivery
// is data-race free; the assertions prove every stream is gapless and
// strictly monotonic — each watcher sees versions 2,3,...,final exactly
// once, in order, with its change summary attached.
func TestWatchConcurrentWatchers(t *testing.T) {
	s := mustRun(t,
		wrangle.WithSeed(7),
		wrangle.WithSyntheticSources(6),
		wrangle.WithIntegrationShards(4),
		wrangle.WithParallelism(2),
		wrangle.WithRetainVersions(3),
		wrangle.WithWatchBuffer(64), // roomy: this test pins gaplessness, not eviction
	)
	first, err := s.View()
	if err != nil {
		t.Fatal(err)
	}

	const (
		watchers  = 16
		reactions = 10
	)
	final := first.Version() + reactions

	var wg sync.WaitGroup
	for i := 0; i < watchers; i++ {
		ch, cancel, err := s.Watch(context.Background(), first.Version())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, ch <-chan wrangle.Change, cancel wrangle.CancelFunc) {
			defer wg.Done()
			defer cancel()
			next := first.Version() + 1
			for c := range ch {
				if c.Evicted {
					t.Errorf("watcher %d evicted at v%d despite draining", id, c.Version())
					return
				}
				if c.Version() != next {
					t.Errorf("watcher %d: got v%d, want v%d (gap or reorder)", id, c.Version(), next)
					return
				}
				// Consistency of the delivered event: the pinned view is
				// the announced version, and the change summary is the one
				// the version retains.
				if c.View.Version() != c.Version() {
					t.Errorf("watcher %d: view pinned to v%d inside change v%d", id, c.View.Version(), c.Version())
					return
				}
				if c.Changes.Full != c.View.Changes().Full {
					t.Errorf("watcher %d: change summary differs from version's", id)
					return
				}
				next++
				if c.Version() == final {
					return // complete stream observed
				}
			}
			t.Errorf("watcher %d: feed closed at v%d before v%d", id, next-1, final)
		}(i, ch, cancel)
	}

	var lines []wrangle.ReportLine
	for _, l := range first.Report().Lines {
		if len(l.Supporters) > 0 {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		t.Fatal("no report lines with supporters")
	}
	for i := 0; i < reactions; i++ {
		if i%2 == 0 {
			line := lines[i%len(lines)]
			_, err = s.ApplyFeedback(context.Background(), wrangle.Feedback{
				Kind: wrangle.ValueIncorrect, SourceID: line.Supporters[0],
				Entity: line.Entity, Attribute: line.Attribute, Cost: 0.5,
			})
		} else {
			ids := s.SelectedSources()
			if len(ids) > 2 {
				ids = ids[:2]
			}
			_, err = s.Refresh(context.Background(), ids...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if s.Watchers() != 0 {
		t.Errorf("Watchers after all cancelled = %d, want 0", s.Watchers())
	}
}

// TestWatchContextCancellation proves ctx cancellation detaches the
// subscription and closes the feed without an eviction notice.
func TestWatchContextCancellation(t *testing.T) {
	s := mustRun(t, wrangle.WithSeed(2), wrangle.WithSyntheticSources(4))
	ctx, stop := context.WithCancel(context.Background())
	ch, _, err := s.Watch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := recvChange(t, ch).Version(); got != 1 {
		t.Fatalf("catch-up v%d, want v1", got)
	}
	stop()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case c, ok := <-ch:
			if !ok {
				if n := s.Watchers(); n != 0 {
					t.Fatalf("Watchers after ctx cancel = %d, want 0", n)
				}
				return
			}
			if c.Evicted {
				t.Fatal("ctx cancellation must not deliver an eviction notice")
			}
		case <-deadline:
			t.Fatal("feed did not close after ctx cancellation")
		}
	}
}
