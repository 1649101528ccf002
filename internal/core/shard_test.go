package core

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feedback"
	"repro/internal/sources"
)

// deltaProvider is a controllable backend: fixed CSV sources whose
// payloads the test mutates between refreshes, so it can dictate exactly
// which blocking shard a reaction touches.
type deltaProvider struct {
	order []string
	srcs  map[string]*sources.Source
}

func (p *deltaProvider) List() []*sources.Source {
	out := make([]*sources.Source, len(p.order))
	for i, id := range p.order {
		out[i] = p.srcs[id]
	}
	return out
}
func (p *deltaProvider) Lookup(id string) *sources.Source  { return p.srcs[id] }
func (p *deltaProvider) Refresh(id string) *sources.Source { return p.srcs[id] }
func (p *deltaProvider) Clock() int                        { return 0 }

func csvSource(id, payload string) *sources.Source {
	return &sources.Source{ID: id, Kind: sources.KindCSV, Raw: payload}
}

// sharedRecords reports how many of cur's records are shared with prev
// by pointer identity: a version published after a one-shard reaction
// shares every untouched shard's records with its predecessor.
func sharedRecords(prev, cur *dataset.Table) int {
	if prev == nil || cur == nil {
		return 0
	}
	seen := make(map[*dataset.Value]bool, prev.Len())
	for i := 0; i < prev.Len(); i++ {
		r := prev.Row(i)
		if len(r) > 0 {
			seen[&r[0]] = true
		}
	}
	shared := 0
	for i := 0; i < cur.Len(); i++ {
		r := cur.Row(i)
		if len(r) > 0 && seen[&r[0]] {
			shared++
		}
	}
	return shared
}

// newDeltaWrangler builds a sharded wrangler over two sources whose rows
// form disjoint blocking components: srcA's names use only the letters
// {p,a,l,m}, srcB's only {b,r,o,n,d,i}, so no q-gram — boundary grams
// included — is ever shared, and a change to one source can only dirty
// the shard its own component hashes to.
func newDeltaWrangler(shards int) (*Wrangler, *deltaProvider) {
	p := &deltaProvider{
		order: []string{"srcA", "srcB"},
		srcs: map[string]*sources.Source{
			"srcA": csvSource("srcA",
				"sku,name,brand,price\nAX-1,palma lampal,acme,10\nAX-2,palma mallap,acme,20\n"),
			"srcB": csvSource("srcB",
				"sku,name,brand,price\nBR-1,brond dronib,umbra,30\nBR-2,brond bindor,umbra,40\n"),
		},
	}
	w := New(p, ProductConfig(), nil, nil)
	w.IntegrationShards = shards
	return w, p
}

// TestDeltaPublishSharesUntouchedPages is the delta-publication
// acceptance test: a refresh that leaves every shard's fused rows
// unchanged publishes a version sharing ALL its table records with the
// predecessor (pointer identity), and a refresh that changes one
// component's values publishes fresh records for that entity while still
// sharing the untouched shards' records.
func TestDeltaPublishSharesUntouchedPages(t *testing.T) {
	ctx := context.Background()
	w, p := newDeltaWrangler(4)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	v1 := w.Serve.Latest()
	if v1 == nil || v1.Data().Table.Len() != 4 {
		t.Fatalf("run published %v", v1)
	}

	// 1. No-op refresh: identical payload, identical fused rows — the new
	// version must share every record with its predecessor.
	if _, err := w.RefreshSourcesContext(ctx, []string{"srcB"}); err != nil {
		t.Fatal(err)
	}
	v2 := w.Serve.Latest()
	if v2.Seq() != 2 {
		t.Fatalf("refresh did not publish: seq=%d", v2.Seq())
	}
	if shared := sharedRecords(v1.Data().Table, v2.Data().Table); shared != v2.Data().Table.Len() {
		t.Fatalf("no-op refresh shared %d/%d records, want all", shared, v2.Data().Table.Len())
	}

	// 2. A refresh that changes srcB's values: srcB's shard republishes
	// fresh records, srcA's untouched shard keeps sharing.
	p.srcs["srcB"] = csvSource("srcB",
		"sku,name,brand,price\nBR-1,brond dronib,umbra,33\nBR-2,brond bindor,umbra,40\n")
	if _, err := w.RefreshSourcesContext(ctx, []string{"srcB"}); err != nil {
		t.Fatal(err)
	}
	v3 := w.Serve.Latest()
	tab2, tab3 := v2.Data().Table, v3.Data().Table
	shared := sharedRecords(tab2, tab3)
	if shared == 0 {
		t.Fatal("changed-source refresh shared nothing; untouched shards should share")
	}
	if shared == tab3.Len() {
		t.Fatal("changed-source refresh shared everything; the changed entity must republish")
	}
	// Per-entity: srcA's component rows are pointer-shared, the changed
	// srcB row is not, and its new value is served.
	kc := tab3.Schema().Index("sku")
	prev := map[string]int{}
	for i := 0; i < tab2.Len(); i++ {
		prev[tab2.Row(i)[kc].String()] = i
	}
	for i := 0; i < tab3.Len(); i++ {
		sku := tab3.Row(i)[kc].String()
		j, ok := prev[sku]
		if !ok {
			t.Fatalf("entity %s missing from previous version", sku)
		}
		sharedRow := &tab3.Row(i)[0] == &tab2.Row(j)[0]
		switch sku {
		case "AX-1", "AX-2":
			if !sharedRow {
				t.Errorf("untouched entity %s was republished instead of shared", sku)
			}
		case "BR-1":
			if sharedRow {
				t.Errorf("changed entity %s still shares its old record", sku)
			}
			if got := tab3.Row(i)[tab3.Schema().Index("price")].FloatVal(); got != 33 {
				t.Errorf("changed entity %s price = %v, want 33", sku, got)
			}
		}
	}
	// The predecessor version is frozen: its copy still serves the old
	// price even though the live data moved on.
	j := prev["BR-1"]
	if got := tab2.Row(j)[tab2.Schema().Index("price")].FloatVal(); got != 30 {
		t.Errorf("previous version mutated: BR-1 price = %v, want 30", got)
	}
}

// TestFuseOnlyReactionKeepsDelta pins the fuse-tail reaction path: a
// value-feedback reaction (trust moved, union and clustering did not)
// re-fuses per shard over the stored routing, so the published version
// still shares every unchanged record with its
// predecessor and the delta chain survives the most common reaction.
func TestFuseOnlyReactionKeepsDelta(t *testing.T) {
	ctx := context.Background()
	w, _ := newDeltaWrangler(4)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	v1 := w.Serve.Latest()
	for i := 0; i < 5; i++ {
		w.AddFeedback(feedback.Item{
			Kind: feedback.ValueIncorrect, SourceID: "srcB",
			Entity: "BR-1", Attribute: "price", Worker: "expert", Cost: 0.5,
		})
	}
	stats, err := w.ReactToFeedbackContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Refused || stats.Reclustered {
		t.Fatalf("expected a fuse-only reaction, got %+v", stats)
	}
	v2 := w.Serve.Latest()
	if v2.Seq() != v1.Seq()+1 {
		t.Fatalf("reaction did not publish: %d after %d", v2.Seq(), v1.Seq())
	}
	// srcB's trust dropped in the new version…
	if tr := v2.Data().Trust["srcB"]; tr >= v1.Data().Trust["srcB"] {
		t.Errorf("feedback did not lower srcB trust: %v -> %v", v1.Data().Trust["srcB"], tr)
	}
	// …but no fused value changed (no conflicting claims here), so every
	// record is still shared with the predecessor.
	if shared := sharedRecords(v1.Data().Table, v2.Data().Table); shared != v2.Data().Table.Len() {
		t.Errorf("fuse-only reaction shared %d/%d records, want all", shared, v2.Data().Table.Len())
	}
	// A follow-up refresh still publishes a delta — the chain was not
	// broken by the fuse-only reaction.
	if _, err := w.RefreshSourcesContext(ctx, []string{"srcB"}); err != nil {
		t.Fatal(err)
	}
	v3 := w.Serve.Latest()
	if shared := sharedRecords(v2.Data().Table, v3.Data().Table); shared != v3.Data().Table.Len() {
		t.Errorf("post-reaction refresh shared %d/%d records, want all", shared, v3.Data().Table.Len())
	}
}

// TestDefaultSessionPublishesDeltas pins that a default session (the
// zero IntegrationShards, one shard) publishes deltas like any sharded
// one: its first version is a full change, and a refresh that leaves the
// fused rows unchanged publishes a version sharing every record with its
// predecessor under a ChangeSet that bounds the change.
func TestDefaultSessionPublishesDeltas(t *testing.T) {
	ctx := context.Background()
	w, _ := newDeltaWrangler(0)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	v1 := w.Serve.Latest()
	if !v1.Changes().Full {
		t.Fatalf("first version changes = %+v, want a full change", v1.Changes())
	}
	if _, err := w.RefreshSourcesContext(ctx, []string{"srcB"}); err != nil {
		t.Fatal(err)
	}
	v2 := w.Serve.Latest()
	if shared := sharedRecords(v1.Data().Table, v2.Data().Table); shared != v2.Data().Table.Len() {
		t.Errorf("no-op refresh shared %d/%d records, want all", shared, v2.Data().Table.Len())
	}
	if cs := v2.Changes(); cs.Full || cs.SharedPages != 1 || cs.ChangedPages != 0 {
		t.Errorf("no-op refresh changes = %+v, want one shared page and no full change", cs)
	}
}

// TestShardedRunMatchesSequentialAcrossReactions is the core-level twin
// of the facade identity tests: the same controlled source mutations
// produce byte-identical fingerprints (runFingerprint from the parallel
// tests) sequential vs sharded.
func TestShardedRunMatchesSequentialAcrossReactions(t *testing.T) {
	ctx := context.Background()
	seqW, seqP := newDeltaWrangler(0)
	shW, shP := newDeltaWrangler(3)
	if _, err := seqW.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := shW.Run(); err != nil {
		t.Fatal(err)
	}
	if a, b := runFingerprint(t, seqW), runFingerprint(t, shW); a != b {
		t.Fatalf("initial run diverged:\nsequential:\n%s\nsharded:\n%s", a, b)
	}
	mutate := func(p *deltaProvider) {
		p.srcs["srcA"] = csvSource("srcA",
			"sku,name,brand,price\nAX-1,palma lampal,acme,11\nAX-2,palma mallap,acme,20\nAX-3,palma palm,acme,25\n")
	}
	mutate(seqP)
	mutate(shP)
	if _, err := seqW.RefreshSourcesContext(ctx, []string{"srcA"}); err != nil {
		t.Fatal(err)
	}
	if _, err := shW.RefreshSourcesContext(ctx, []string{"srcA"}); err != nil {
		t.Fatal(err)
	}
	if a, b := runFingerprint(t, seqW), runFingerprint(t, shW); a != b {
		t.Fatalf("post-refresh diverged:\nsequential:\n%s\nsharded:\n%s", a, b)
	}
}

// TestFuseOnlyAfterEmptyUnion pins the empty-union path of the tail: once
// a reaction integrates an empty union, the outputs are reset (empty
// table, no results, a full change), and a later value-feedback reaction
// — which re-fuses over the stored clustering — finds nothing to re-fuse
// and publishes that same empty output instead of fusing stale clusters.
func TestFuseOnlyAfterEmptyUnion(t *testing.T) {
	ctx := context.Background()
	w, p := newDeltaWrangler(0)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	entity := w.Results()[0].Entity
	for _, id := range p.order {
		p.srcs[id] = csvSource(id, "sku,name,brand,price\n")
	}
	if _, err := w.RefreshSourcesContext(ctx, p.order); err != nil {
		t.Fatal(err)
	}
	empty := func(stage string) {
		t.Helper()
		v := w.Serve.Latest()
		if n := v.Data().Table.Len(); n != 0 || len(w.Results()) != 0 || !v.Changes().Full {
			t.Fatalf("%s: published %d rows, %d results, changes %+v; want the empty output as a full change",
				stage, n, len(w.Results()), v.Changes())
		}
	}
	empty("empty refresh")
	seq := w.Serve.Latest().Seq()
	w.AddFeedback(feedback.Item{Kind: feedback.ValueCorrect, SourceID: "srcA",
		Entity: entity, Attribute: "price", Worker: "expert", Cost: 0.1})
	if _, err := w.ReactToFeedback(); err != nil {
		t.Fatal(err)
	}
	if got := w.Serve.Latest().Seq(); got != seq+1 {
		t.Fatalf("value feedback published seq %d, want %d", got, seq+1)
	}
	empty("value feedback")
}
