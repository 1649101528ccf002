// Package provenance tracks where every working-data item came from and
// which components touched it. The paper (§4.2) calls for a uniform
// representation of diverse working data — extraction rules, mappings,
// feedback, quality annotations — "along with their associated quality
// annotations and uncertainties"; provenance records are that common spine,
// and the dependency graph over them is what enables incremental,
// feedback-scoped reprocessing (§2.4).
package provenance

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies working-data artefacts.
type Kind string

// Artefact kinds found in the working-data store.
const (
	KindSource     Kind = "source"     // a raw data source
	KindExtraction Kind = "extraction" // the output of a wrapper on a source
	KindWrapper    Kind = "wrapper"    // an induced wrapper
	KindMapping    Kind = "mapping"    // a generated mapping
	KindCluster    Kind = "cluster"    // an entity-resolution cluster set
	KindFusion     Kind = "fusion"     // a fused (wrangled) dataset
	KindQuality    Kind = "quality"    // a quality analysis result
	KindFeedback   Kind = "feedback"   // a user/crowd feedback item
)

// Ref identifies an artefact: kind plus a stable identifier.
type Ref struct {
	Kind Kind
	ID   string
}

// String renders the ref as "kind:id".
func (r Ref) String() string { return string(r.Kind) + ":" + r.ID }

// Record describes one derivation: an artefact, the component that produced
// it, its direct inputs, and an optional logical timestamp (monotonically
// assigned by the graph).
type Record struct {
	Artefact  Ref
	Component string // e.g. "extract.Induce", "fusion.Fuse"
	Inputs    []Ref
	Step      uint64 // logical time of derivation
	Note      string
}

// Graph is a thread-safe provenance store: a DAG from inputs to derived
// artefacts. Re-registering an artefact replaces its derivation (the new
// record gets a later step).
type Graph struct {
	mu      sync.RWMutex
	records map[Ref]*Record
	rdeps   map[Ref]map[Ref]bool // input -> set of artefacts derived from it
	step    uint64
}

// NewGraph returns an empty provenance graph.
func NewGraph() *Graph {
	return &Graph{records: make(map[Ref]*Record), rdeps: make(map[Ref]map[Ref]bool)}
}

// NewGraphFrom returns an empty graph whose logical clock resumes from
// step. Replacing a graph mid-lifecycle (FullRerun) must not rewind
// time: artefacts stamped with the old graph's steps — published
// snapshot versions in particular — stay strictly older than anything
// the new graph derives.
func NewGraphFrom(step uint64) *Graph {
	g := NewGraph()
	g.step = step
	return g
}

// Put registers (or replaces) the derivation of an artefact.
func (g *Graph) Put(artefact Ref, component string, inputs []Ref, note string) *Record {
	g.mu.Lock()
	defer g.mu.Unlock()
	if old, ok := g.records[artefact]; ok {
		for _, in := range old.Inputs {
			delete(g.rdeps[in], artefact)
		}
	}
	g.step++
	rec := &Record{Artefact: artefact, Component: component, Inputs: append([]Ref(nil), inputs...), Step: g.step, Note: note}
	g.records[artefact] = rec
	for _, in := range inputs {
		if g.rdeps[in] == nil {
			g.rdeps[in] = make(map[Ref]bool)
		}
		g.rdeps[in][artefact] = true
	}
	return rec
}

// Step returns the logical time of the most recent derivation — the
// graph's current clock. A served snapshot stamped with this value can be
// traced back to exactly the lineage state that produced it.
func (g *Graph) Step() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.step
}

// Get returns the derivation record for the artefact, or nil.
func (g *Graph) Get(artefact Ref) *Record {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.records[artefact]
}

// Len returns the number of registered artefacts.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.records)
}

// Dependents returns the artefacts directly derived from the given one,
// sorted for determinism.
func (g *Graph) Dependents(of Ref) []Ref {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return sortRefs(g.rdeps[of])
}

// Affected returns every artefact transitively derived from any of the
// given refs (excluding the refs themselves), sorted. This is the set that
// must be recomputed when those inputs change — the paper's requirement
// that feedback reactions "limit the processing to the strictly necessary
// data" (§2.4).
func (g *Graph) Affected(changed ...Ref) []Ref {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[Ref]bool)
	var frontier []Ref
	frontier = append(frontier, changed...)
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for dep := range g.rdeps[next] {
			if !seen[dep] {
				seen[dep] = true
				frontier = append(frontier, dep)
			}
		}
	}
	for _, c := range changed {
		delete(seen, c)
	}
	return sortRefs(seen)
}

// AffectedIDs is the scoped form of Affected the reaction planner uses:
// it returns the ids (sorted) of affected artefacts of exactly one kind.
// Asking "which extractions does this source churn invalidate" bounds an
// incremental diff to the artefacts provenance actually implicates,
// instead of rescanning the corpus — the §2.4 requirement made queryable.
func (g *Graph) AffectedIDs(kind Kind, changed ...Ref) []string {
	var out []string
	for _, r := range g.Affected(changed...) {
		if r.Kind == kind {
			out = append(out, r.ID)
		}
	}
	return out
}

// Lineage returns the transitive inputs of an artefact (excluding itself),
// sorted — "where did this wrangled value come from".
func (g *Graph) Lineage(of Ref) []Ref {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[Ref]bool)
	var walk func(Ref)
	walk = func(r Ref) {
		rec := g.records[r]
		if rec == nil {
			return
		}
		for _, in := range rec.Inputs {
			if !seen[in] {
				seen[in] = true
				walk(in)
			}
		}
	}
	walk(of)
	return sortRefs(seen)
}

// Sources returns the subset of an artefact's lineage with kind
// KindSource — the raw origins of a wrangled item.
func (g *Graph) Sources(of Ref) []Ref {
	var out []Ref
	for _, r := range g.Lineage(of) {
		if r.Kind == KindSource {
			out = append(out, r)
		}
	}
	return out
}

// RecordsSince returns a copy of every derivation record with Step >
// step, sorted by step ascending — the delta a durable log appends per
// publish. Steps are unique (one per Put), so the order is total, and a
// replayed Apply of successive deltas reconstructs the graph exactly:
// a record replaced after `step` shows up once, at its new step, and
// overwrites the stale derivation on apply.
func (g *Graph) RecordsSince(step uint64) []Record {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Record
	for _, rec := range g.records {
		if rec.Step > step {
			cp := *rec
			cp.Inputs = append([]Ref(nil), rec.Inputs...)
			out = append(out, cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// Apply installs replayed records verbatim — each keeps its recorded
// step, unlike Put which stamps the clock — with the same replacement
// semantics as Put, and advances the clock to cover both the applied
// records and the given floor (the step a restored snapshot was
// published at; a graph reset by FullRerun can sit ahead of its newest
// record). Records must be applied in the order RecordsSince returned
// them so replacements land last.
func (g *Graph) Apply(recs []Record, step uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range recs {
		if old, ok := g.records[r.Artefact]; ok {
			for _, in := range old.Inputs {
				delete(g.rdeps[in], r.Artefact)
			}
		}
		cp := r
		cp.Inputs = append([]Ref(nil), r.Inputs...)
		g.records[r.Artefact] = &cp
		for _, in := range cp.Inputs {
			if g.rdeps[in] == nil {
				g.rdeps[in] = make(map[Ref]bool)
			}
			g.rdeps[in][r.Artefact] = true
		}
		if cp.Step > g.step {
			g.step = cp.Step
		}
	}
	if step > g.step {
		g.step = step
	}
}

// Dump renders every derivation record — artefact, component, inputs,
// step and note — one line each, sorted by artefact ref. The rendering
// is stable: two graphs that recorded the same derivations in the same
// order dump identically, which is what the determinism harness uses to
// assert that a sharded integration derives exactly what a sequential
// one does.
func (g *Graph) Dump() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set := make(map[Ref]bool, len(g.records))
	for r := range g.records {
		set[r] = true
	}
	var b strings.Builder
	for _, r := range sortRefs(set) {
		rec := g.records[r]
		ins := make([]string, len(rec.Inputs))
		for i, in := range rec.Inputs {
			ins[i] = in.String()
		}
		fmt.Fprintf(&b, "%s ← %s(%s) @%d %s\n", r, rec.Component, strings.Join(ins, ", "), rec.Step, rec.Note)
	}
	return b.String()
}

// Describe renders a one-line lineage summary for diagnostics.
func (g *Graph) Describe(of Ref) string {
	rec := g.Get(of)
	if rec == nil {
		return of.String() + " (unknown)"
	}
	ins := make([]string, len(rec.Inputs))
	for i, r := range rec.Inputs {
		ins[i] = r.String()
	}
	return fmt.Sprintf("%s ← %s(%s) @%d", of, rec.Component, strings.Join(ins, ", "), rec.Step)
}

func sortRefs(set map[Ref]bool) []Ref {
	out := make([]Ref, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].ID < out[j].ID
	})
	return out
}
