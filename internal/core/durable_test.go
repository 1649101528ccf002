package core

import (
	"sort"
	"testing"

	"repro/internal/feedback"
	"repro/internal/wal"
)

// writeLegacyDefaultLog writes the log a default session committed before
// its tail built shard pages: a config record with shard count 0, then the
// run's source and provenance records and its version with the output
// inline (payload mode 0).
func writeLegacyDefaultLog(t *testing.T, w *Wrangler, dir string) {
	t.Helper()
	d, err := OpenDurableLog(dir, FsyncOnCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	recs := []wal.Data{{Kind: wal.KindConfig, Payload: encodeConfig(w.Config, 0, false, w.Serve.Retain())}}
	ids := make([]string, 0, len(w.states))
	for id := range w.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		recs = append(recs, wal.Data{Kind: wal.KindSource, Payload: encodeSourcePayload(id, w.states[id])})
	}
	recs = append(recs,
		wal.Data{Kind: wal.KindProv, Payload: encodeProvPayload(w.Prov.RecordsSince(0))},
		wal.Data{Kind: wal.KindVersion, Payload: encodeVersionPayload(w, w.Serve.Latest(), nil)})
	for _, r := range recs {
		if err := d.log.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.log.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyDefaultLogAttaches pins log compatibility across the
// one-shard floor: a log whose config records 0 shards — what a default
// session wrote before the zero value meant one shard — still attaches
// to a default session, restores its inline version, and the restored
// session reacts exactly like the session that wrote it. The config check
// itself stays: a session with another shard count refuses the log.
func TestLegacyDefaultLogAttaches(t *testing.T) {
	live, _ := newDeltaWrangler(0)
	if _, err := live.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeLegacyDefaultLog(t, live, dir)

	other, _ := newDeltaWrangler(2)
	d, err := OpenDurableLog(dir, FsyncOnCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.AttachDurableLog(d); err == nil {
		t.Error("a 2-shard session attached a log written by a default session")
	}
	d.Close()

	restored, _ := newDeltaWrangler(0)
	d, err = OpenDurableLog(dir, FsyncOnCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ok, err := restored.AttachDurableLog(d)
	if err != nil || !ok {
		t.Fatalf("attach = %v, %v; want a restored default session", ok, err)
	}
	same := func(stage string) {
		t.Helper()
		a, b := live.Serve.Latest().Data(), restored.Serve.Latest().Data()
		if a.Table.String() != b.Table.String() {
			t.Fatalf("%s: restored table differs:\nlive:\n%s\nrestored:\n%s", stage, a.Table, b.Table)
		}
		for src, tr := range a.Trust {
			if b.Trust[src] != tr {
				t.Fatalf("%s: trust[%s] = %v restored, %v live", stage, src, b.Trust[src], tr)
			}
		}
	}
	same("restore")

	// A fuse-only reaction re-fuses the restored inline output as the
	// session's one page; a refresh then re-integrates.
	r := live.Results()[0]
	for _, w := range []*Wrangler{live, restored} {
		w.AddFeedback(feedback.Item{Kind: feedback.ValueCorrect, SourceID: "srcA",
			Entity: r.Entity, Attribute: r.Attribute, Worker: "expert", Cost: 0.1})
		if _, err := w.ReactToFeedback(); err != nil {
			t.Fatal(err)
		}
	}
	same("value feedback")
	for _, w := range []*Wrangler{live, restored} {
		if _, err := w.RefreshSource("srcA"); err != nil {
			t.Fatal(err)
		}
	}
	same("refresh")
}
