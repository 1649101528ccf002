package er

import (
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/text"
)

// This file is the matcher's per-row precompute: everything Features and
// blockKeysOf derive from a single row's values — normalized key and
// secondary strings, tokenized name fields (as runes, the form the
// similarity fast paths consume), numeric value, block keys — is computed
// once per union build instead of once per candidate pair. A scored pair
// used to re-normalize up to six strings and re-tokenize both names
// inside Monge-Elkan; with the precompute it touches no string machinery
// at all.
//
// Values are additionally de-duplicated: a union over many overlapping
// sources repeats the same normalized name on dozens of rows, so rows
// carry an id into a distinct-value table and similarities are memoized
// per distinct id pair (simMemo below). The state is built
// single-threaded (the plan stage / resolve entry points) and is
// read-only during the shard fan-out except for the memo, which is
// mutex-guarded. Every value is derived by the exact deterministic
// functions the per-pair path applied, so scores are bit-identical —
// pinned by the equivalence test and the wrangletest fingerprint
// harness.

// rowFeatures is one row's precomputed matcher state. The name/secondary
// slices alias the table-wide distinct-value entries.
type rowFeatures struct {
	keyOK bool
	key   string // Normalize(key value)

	nameOK   bool
	nameID   int
	name     []rune   // Normalize(name value), as runes
	nameToks [][]rune // Tokenize(name value), as runes

	secOK    bool
	secID    int
	sec      string // Normalize(secondary value)
	secRunes []rune

	numOK bool
	num   float64

	blockKeys []string // exactly blockKeysOf's keys for this row
}

// simMemo caches a similarity score per distinct-value id pair. Both
// JaroWinkler and the symmetrized Monge-Elkan blend are bit-exactly
// symmetric (their formulas combine the directional terms with
// commutative additions), so the pair is canonicalized to (lo, hi) and
// one cached float serves both call directions. Lookups happen inside
// the concurrent resolve fan-out, hence the mutex; the lock is released
// around the compute, so two goroutines may race to fill the same entry
// — they compute the identical float, and whichever store wins is
// indistinguishable.
type simMemo struct {
	mu sync.Mutex
	m  map[int64]float64
}

func (s *simMemo) get(ia, ib, n int, sc *text.Scratch, compute func(lo, hi int, sc *text.Scratch) float64) float64 {
	lo, hi := ia, ib
	if lo > hi {
		lo, hi = hi, lo
	}
	k := int64(lo)*int64(n) + int64(hi)
	s.mu.Lock()
	if v, ok := s.m[k]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := compute(lo, hi, sc)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[int64]float64{}
	}
	s.m[k] = v
	s.mu.Unlock()
	return v
}

// tableFeatures is the per-table feature state plus the resolver
// configuration it was derived under — Features and blockKeysOf use it
// only while both the table and the configuration still match, falling
// back to the per-pair path otherwise.
type tableFeatures struct {
	t *dataset.Table

	keyCol, nameCol, secCol, numCol string
	gram                            int
	// Schema positions the rows were read through (-1 = absent). A row
	// entry carried into the next round is only valid when its values
	// sit at the same positions.
	ki, ni, si, pi int

	rows []rowFeatures

	// Distinct-value registries, indexed by rowFeatures.nameID / secID.
	// Ids are append-only, so a carried row entry's id stays valid; a
	// value no row references any more keeps its slot (refs 0) until a
	// full Prepare rebuilds the registries.
	names     [][]rune
	nameToks  [][][]rune
	nameIDs   map[string]int
	nameRefs  []int
	liveNames int
	secStrs   []string
	secRunes  [][]rune
	secIDs    map[string]int
	secRefs   []int
	liveSecs  int

	// The similarity memos are per round: they fill during the resolve
	// fan-out and are never carried.
	nameMemo simMemo
	secMemo  simMemo
}

// nameSim is the name feature for two prepared rows, memoized per
// distinct name pair: JaroWinkler, blended with symmetric Monge-Elkan
// only when the pair clears 0.5 (token alignment cannot rescue a pair
// more dissimilar than that, and blocking emits many such candidates).
func (p *tableFeatures) nameSim(ia, ib int, sc *text.Scratch) float64 {
	return p.nameMemo.get(ia, ib, len(p.names), sc, func(lo, hi int, sc *text.Scratch) float64 {
		jw := text.JaroWinklerRunes(p.names[lo], p.names[hi], sc)
		if jw < 0.5 {
			return jw
		}
		return 0.5*jw + 0.5*text.MongeElkanSymTokens(p.nameToks[lo], p.nameToks[hi], sc)
	})
}

// secSim is the secondary feature for two prepared rows with unequal
// normalized values, memoized per distinct pair.
func (p *tableFeatures) secSim(ia, ib int, sc *text.Scratch) float64 {
	return p.secMemo.get(ia, ib, len(p.secStrs), sc, func(lo, hi int, sc *text.Scratch) float64 {
		return text.JaroWinklerRunes(p.secRunes[lo], p.secRunes[hi], sc)
	})
}

// valid reports whether the precomputed state may serve the resolver's
// current configuration over table t.
func (p *tableFeatures) valid(r *Resolver, t *dataset.Table) bool {
	return p != nil && p.t == t && len(p.rows) == t.Len() &&
		p.keyCol == r.KeyColumn && p.nameCol == r.NameColumn &&
		p.secCol == r.SecondaryColumn && p.numCol == r.NumericColumn &&
		p.gram == r.BlockGramSize
}

// colIndex resolves a configured column to its schema index, -1 when the
// column is unset or absent (the per-pair path treated both as null).
func colIndex(s dataset.Schema, name string) int {
	if name == "" {
		return -1
	}
	return s.Index(name)
}

// newFeatures returns empty feature state for t under the resolver's
// current configuration: rows allocated, registries not yet attached.
func (r *Resolver) newFeatures(t *dataset.Table) *tableFeatures {
	schema := t.Schema()
	return &tableFeatures{
		t:       t,
		keyCol:  r.KeyColumn,
		nameCol: r.NameColumn,
		secCol:  r.SecondaryColumn,
		numCol:  r.NumericColumn,
		gram:    r.BlockGramSize,
		ki:      colIndex(schema, r.KeyColumn),
		ni:      colIndex(schema, r.NameColumn),
		si:      colIndex(schema, r.SecondaryColumn),
		pi:      colIndex(schema, r.NumericColumn),
		rows:    make([]rowFeatures, t.Len()),
	}
}

// Prepare precomputes the per-row feature state for t, replacing any
// previous state. Resolve, ResolveConstrained and PlanShards call it on
// entry (RePlan carries the previous round's state instead and prepares
// only dirty rows); callers driving Features or ResolveShard directly may
// call it themselves to get the allocation-free path. Prepare must not
// run concurrently with Features (the resolve fan-out reads the state it
// installs), which the pipeline's plan-stage/fan-out ordering guarantees.
func (r *Resolver) Prepare(t *dataset.Table) {
	p := r.newFeatures(t)
	p.nameIDs = map[string]int{}
	p.secIDs = map[string]int{}
	sc := prepScratch{seen: map[string]bool{}}
	for i := range p.rows {
		p.prepareRow(t.Row(i), &p.rows[i], &sc)
	}
	r.prep = p
}

// prepareDelta is Prepare for a table that differs from prev's only in
// the rows named by dirty (row keys; rows that appeared or disappeared
// included). rowIdx maps a stable row key to its row in t, prevKey a
// row of prev's table to its key. Every clean row adopts prev's entry,
// and prev's registries are carried over, so only dirty rows touch the
// string machinery. The carried state equals a fresh Prepare row for
// row: an entry is a function of the row's values and the configuration,
// both unchanged for a clean row. prev is consumed — its registries move
// into the new state. When the registries have accumulated more dead
// values than live ones, or prev was built under another configuration,
// the state is rebuilt from scratch instead; both rules depend only on
// the data. Returns the number of rows whose entries were derived.
func (r *Resolver) prepareDelta(t *dataset.Table, rowIdx map[string]int, dirty map[string]bool, prev *tableFeatures, prevKey func(int) string) int {
	p := r.newFeatures(t)
	if !p.carries(prev) {
		r.Prepare(t)
		return t.Len()
	}
	p.names, p.nameToks, p.nameIDs = prev.names, prev.nameToks, prev.nameIDs
	p.nameRefs, p.liveNames = prev.nameRefs, prev.liveNames
	p.secStrs, p.secRunes, p.secIDs = prev.secStrs, prev.secRunes, prev.secIDs
	p.secRefs, p.liveSecs = prev.secRefs, prev.liveSecs
	carried := make([]bool, len(p.rows))
	for j := range prev.rows {
		k := prevKey(j)
		if i, ok := rowIdx[k]; ok && !dirty[k] && !carried[i] {
			p.rows[i] = prev.rows[j]
			carried[i] = true
			continue
		}
		p.release(&prev.rows[j])
	}
	prepared := 0
	var sc prepScratch
	for i := range p.rows {
		if carried[i] {
			continue
		}
		if sc.seen == nil {
			sc = prepScratch{seen: map[string]bool{}, grams: make([][]string, len(p.names))}
		}
		p.prepareRow(t.Row(i), &p.rows[i], &sc)
		prepared++
	}
	if len(p.names)-p.liveNames > p.liveNames || len(p.secStrs)-p.liveSecs > p.liveSecs {
		r.Prepare(t)
		return t.Len()
	}
	r.prep = p
	return prepared
}

// carries reports whether prev's row entries and registries may seed p:
// same configuration and the same schema positions.
func (p *tableFeatures) carries(prev *tableFeatures) bool {
	return prev != nil && prev.nameIDs != nil &&
		prev.keyCol == p.keyCol && prev.nameCol == p.nameCol &&
		prev.secCol == p.secCol && prev.numCol == p.numCol && prev.gram == p.gram &&
		prev.ki == p.ki && prev.ni == p.ni && prev.si == p.si && prev.pi == p.pi
}

// prepScratch is one preparation pass's working memory: gram-dedup
// scratch, and the "g:" block keys of every distinct name the pass has
// met, by name id. The gram lists live only for the pass — rows keep
// their own block-key slices — so carried state does not hold a second
// copy of them.
type prepScratch struct {
	seen  map[string]bool
	grams [][]string
}

// prepareRow derives one row's entry, registering the distinct values
// it introduces: tokenization and rune conversion are computed once per
// distinct normalized value, and the entry aliases the shared slices.
// A name's q-gram block keys are computed once per pass: rows with equal
// normalized names have equal tokens, so any of them yields the same
// list.
func (p *tableFeatures) prepareRow(row dataset.Record, rf *rowFeatures, sc *prepScratch) {
	if p.ki >= 0 && !row[p.ki].IsNull() {
		rf.keyOK = true
		rf.key = text.Normalize(row[p.ki].String())
		rf.blockKeys = append(rf.blockKeys, "k:"+rf.key)
	}
	if p.ni >= 0 && !row[p.ni].IsNull() {
		rf.nameOK = true
		toks := text.Tokenize(row[p.ni].String())
		// Normalize is Tokenize rejoined on single spaces, so the
		// normalized string falls out of the token pass for free.
		norm := strings.Join(toks, " ")
		id, ok := p.nameIDs[norm]
		if !ok {
			id = len(p.names)
			p.nameIDs[norm] = id
			p.names = append(p.names, []rune(norm))
			p.nameToks = append(p.nameToks, text.TokenRunes(toks))
			p.nameRefs = append(p.nameRefs, 0)
		}
		for len(sc.grams) <= id {
			sc.grams = append(sc.grams, nil)
		}
		if sc.grams[id] == nil {
			clear(sc.seen)
			grams := []string{}
			for _, tok := range toks {
				for _, g := range text.QGrams(tok, p.gram) {
					key := "g:" + g
					if !sc.seen[key] {
						sc.seen[key] = true
						grams = append(grams, key)
					}
				}
			}
			sc.grams[id] = grams
		}
		if p.nameRefs[id]++; p.nameRefs[id] == 1 {
			p.liveNames++
		}
		rf.nameID = id
		rf.name = p.names[id]
		rf.nameToks = p.nameToks[id]
		rf.blockKeys = append(rf.blockKeys, sc.grams[id]...)
	}
	if p.si >= 0 && !row[p.si].IsNull() {
		rf.secOK = true
		norm := text.Normalize(row[p.si].String())
		id, ok := p.secIDs[norm]
		if !ok {
			id = len(p.secStrs)
			p.secIDs[norm] = id
			p.secStrs = append(p.secStrs, norm)
			p.secRunes = append(p.secRunes, []rune(norm))
			p.secRefs = append(p.secRefs, 0)
		}
		if p.secRefs[id]++; p.secRefs[id] == 1 {
			p.liveSecs++
		}
		rf.secID = id
		rf.sec = p.secStrs[id]
		rf.secRunes = p.secRunes[id]
	}
	if p.pi >= 0 && row[p.pi].IsNumeric() {
		rf.numOK = true
		rf.num = row[p.pi].FloatVal()
	}
}

// release drops a row entry's references to the registries.
func (p *tableFeatures) release(rf *rowFeatures) {
	if rf.nameOK {
		if p.nameRefs[rf.nameID]--; p.nameRefs[rf.nameID] == 0 {
			p.liveNames--
		}
	}
	if rf.secOK {
		if p.secRefs[rf.secID]--; p.secRefs[rf.secID] == 0 {
			p.liveSecs--
		}
	}
}
