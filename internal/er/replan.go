package er

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/text"
)

// This file is the incremental half of shard planning: a completed
// plan+resolve round is memoized as a PlanState (block index, per-shard
// inputs and clusters, all keyed by stable row keys), and RePlan folds a
// delta into it — only the dirty rows re-block and re-route, and every
// shard whose resolve inputs are provably unchanged skips ResolveShard
// entirely, its previous clusters translated to the new row numbering by
// reference. The contract is the same strict one the sharded tail
// carries: a re-planned round is byte-identical to a fresh PlanShards +
// full resolve over the new table. The reuse argument: a shard's resolve
// output is a function of its rows' values, its candidate pairs, the
// constraints that touch it and the scoring rule; pairs only change
// inside blocks whose membership changed, and block membership only
// changes for re-blocked (dirty) rows — so a shard with no dirty row, no
// touched block, no changed constraint and an unchanged rule must
// resolve to exactly the clusters it had.

// blockIndex is the blocking state keyed by stable row key, so it
// survives row-index shifts between reactions.
type blockIndex struct {
	blocks    map[string]map[string]bool // block key -> member row keys
	rowBlocks map[string][]string        // row key -> block keys it is in
}

// newBlockIndex indexes the prepared rows' block keys — exactly
// blockKeysOf's keys for each row — by stable row key.
func newBlockIndex(feats *tableFeatures, rowKeys []string) *blockIndex {
	idx := &blockIndex{
		blocks:    map[string]map[string]bool{},
		rowBlocks: make(map[string][]string, len(feats.rows)),
	}
	for i := range feats.rows {
		rk := rowKeys[i]
		bks := feats.rows[i].blockKeys
		idx.rowBlocks[rk] = bks
		for _, bk := range bks {
			if idx.blocks[bk] == nil {
				idx.blocks[bk] = map[string]bool{}
			}
			idx.blocks[bk][rk] = true
		}
	}
	return idx
}

// pairs enumerates the candidate pairs of the index — byte-identical to
// CandidatePairs over the same rows: blocks visited in sorted key order,
// oversized blocks skipped, pairs deduplicated and sorted by (I, J).
func (idx *blockIndex) pairs(rowIdx map[string]int, maxBlock int) ([]Pair, error) {
	keys := make([]string, 0, len(idx.blocks))
	total := 0
	for k, set := range idx.blocks {
		keys = append(keys, k)
		if n := len(set); n >= 2 && n <= maxBlock {
			total += n * (n - 1) / 2
		}
	}
	sort.Strings(keys)
	// One slab for every block's pairs, then the shared sort + in-place
	// compact (sortDedupPairs) — the same output the map-based dedup
	// produced, without its per-insert allocations.
	out := make([]Pair, 0, total)
	var member []int
	for _, k := range keys {
		set := idx.blocks[k]
		if len(set) < 2 || len(set) > maxBlock {
			continue
		}
		member = member[:0]
		for rk := range set {
			i, ok := rowIdx[rk]
			if !ok {
				return nil, fmt.Errorf("er: block index references unknown row key %q", rk)
			}
			member = append(member, i)
		}
		for a := 0; a < len(member); a++ {
			for b := a + 1; b < len(member); b++ {
				p := Pair{I: member[a], J: member[b]}
				if p.I > p.J {
					p.I, p.J = p.J, p.I
				}
				out = append(out, p)
			}
		}
	}
	return sortDedupPairs(out), nil
}

// PlanState memoizes one completed plan+resolve round for incremental
// re-planning. Everything is keyed by stable row keys, so the state stays
// valid when other sources' row counts shift the global numbering.
type PlanState struct {
	shards int

	// Scoring rule snapshot: clusters may only be reused when the rule
	// that produced them still scores identically.
	weights   []float64
	threshold float64
	// Blocking parameter snapshot: the block index is only reusable while
	// the key/name columns and gram settings match.
	keyCol, nameCol string
	gram, maxBlock  int

	idx *blockIndex
	// feats is the round's prepared matcher state and featKeys the row
	// keys its entries are numbered by: the next round adopts every clean
	// row's entry and prepares only dirty rows.
	feats      *tableFeatures
	featKeys   []string
	shardRoots []map[string]string // per shard: row key -> representative row key
	must       [][2]string         // canonical constraint pairs, sorted
	cannot     [][2]string
	// scores caches the rule score of every pair scored under this state's
	// rule, keyed by canonical row-key pair. A pair's score depends only on
	// its two rows' values, so entries stay bit-valid until an endpoint's
	// content changes — the next round's resolve recomputes only
	// dirty-incident pairs. nil after a full (non-streaming) round; the
	// first streaming reaction then scores once and seeds it.
	scores map[pairKey]float64
}

// pairKey is a candidate pair as canonical (smaller, larger) row keys —
// stable across row-index shifts.
type pairKey [2]string

func pairKeyOf(rowKeys []string, p Pair) pairKey {
	a, b := rowKeys[p.I], rowKeys[p.J]
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// BuildPlanState captures a completed round: the plan's block index,
// the per-shard resolve roots, and the constraints, all translated to
// row keys. A fresh PlanShards plan carries no index — only the
// incremental re-plan reads one — so it is built here from the plan's
// prepared block keys. rowKeys must be the stable keys the plan was
// built with.
func BuildPlanState(r *Resolver, plan *ShardPlan, rowKeys []string, roots []map[int]int, must, cannot []Pair) (*PlanState, error) {
	if len(rowKeys) != len(plan.RowShard) {
		return nil, fmt.Errorf("er: %d row keys for a %d-row plan", len(rowKeys), len(plan.RowShard))
	}
	if plan.idx == nil {
		if plan.feats == nil || len(plan.feats.rows) != len(rowKeys) {
			return nil, fmt.Errorf("er: plan carries no block index or prepared rows")
		}
		plan.idx = newBlockIndex(plan.feats, rowKeys)
	}
	st := &PlanState{
		shards:     plan.NumShards,
		weights:    slices.Clone(r.Weights),
		threshold:  r.Threshold,
		keyCol:     r.KeyColumn,
		nameCol:    r.NameColumn,
		gram:       r.BlockGramSize,
		maxBlock:   r.MaxBlockSize,
		idx:        plan.idx,
		feats:      plan.feats,
		featKeys:   rowKeys,
		shardRoots: make([]map[string]string, plan.NumShards),
		must:       canonPairs(must, rowKeys),
		cannot:     canonPairs(cannot, rowKeys),
	}
	for s, rows := range plan.Rows {
		rt := make(map[string]string, len(rows))
		for _, row := range rows {
			root, ok := roots[s][row]
			if !ok {
				return nil, fmt.Errorf("er: shard %d roots miss row %d", s, row)
			}
			rt[rowKeys[row]] = rowKeys[root]
		}
		st.shardRoots[s] = rt
	}
	return st, nil
}

// canonPairs renders constraint pairs as ordered row-key pairs, sorted —
// the representation two rounds' constraints are diffed in.
func canonPairs(ps []Pair, rowKeys []string) [][2]string {
	out := make([][2]string, 0, len(ps))
	for _, p := range ps {
		if !validPair(p, len(rowKeys)) || p.I == p.J {
			continue
		}
		a, b := rowKeys[p.I], rowKeys[p.J]
		if a > b {
			a, b = b, a
		}
		out = append(out, [2]string{a, b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// RePlanned is the output of an incremental re-plan: the new plan, plus
// — per shard — the clusters that carried over from the previous round
// (Roots, complete for every clean component) and the residue that still
// needs scoring (DirtyRows / DirtyPairs). A shard with no dirty
// components is marked Reused and skips resolution entirely; a mixed
// shard resolves only its dirty components' rows via ResolveShardRows
// and merges them with the pre-filled Roots.
type RePlanned struct {
	Plan *ShardPlan
	// Reused marks shards with no dirty component: Roots is complete and
	// no resolve call is needed.
	Reused []bool
	// Roots holds, per shard, the translated representatives of every
	// clean component's rows (complete when Reused, partial otherwise).
	Roots []map[int]int
	// DirtyRows lists, per shard, the rows of dirty components
	// (ascending); DirtyPairs their candidate pairs, in plan order.
	DirtyRows  [][]int
	DirtyPairs [][]Pair
	// AffectedRows counts the rows the delta touched (dirty rows plus
	// rows sharing a changed block or constraint) — the dirty frontier.
	// ReusedComponents / DirtyComponents split the plan's components.
	// RowsPrepared counts the rows whose matcher features were derived
	// this round (the rest were carried from the previous round).
	AffectedRows     int
	ReusedComponents int
	DirtyComponents  int
	RowsPrepared     int

	rowKeys []string
	// prevScores is the previous round's score cache with every entry
	// incident to a dirty row deleted: what remains is bit-valid.
	// Read-only during the resolve fan-out.
	prevScores map[pairKey]float64
	// shardScores collects the scores each shard's resolve computed fresh
	// this round — one map per shard, single-writer, folded into the next
	// PlanState by Commit.
	shardScores []map[pairKey]float64
}

// RePlan incrementally re-plans after a delta. dirty holds the row keys
// whose content changed — including keys that appeared or disappeared —
// relative to the round prev memoizes; rowKeys are the new table's stable
// keys (required, one per row). Only dirty rows are re-prepared and
// re-blocked; pairs, components and shard routing are reassembled from
// the updated index exactly as PlanShards would build them from scratch.
// A block-connected component untouched by the delta — no dirty row, no
// changed block, no changed constraint, unchanged scoring rule — keeps
// its owner shard and its previous clusters, translated to the new
// numbering without scoring a single pair; only dirty components' rows
// remain to be resolved.
//
// RePlan consumes prev: its matcher features, block index and score
// cache are patched in place into the new round's state, so prev must
// not be passed to RePlan again, whether or not this call succeeds. A
// caller whose round fails after RePlan must drop prev and plan the next
// round from scratch (the core planner drops its memo on any failed
// tail).
//
// When prev is nil or was built under different blocking parameters or a
// different shard count, RePlan degrades to a fresh PlanShards with no
// reuse — never an error, so callers need no fallback path of their own.
func (r *Resolver) RePlan(t *dataset.Table, n int, must, cannot []Pair, rowKeys []string, dirty map[string]bool, prev *PlanState) (*RePlanned, error) {
	if len(rowKeys) != t.Len() {
		return nil, fmt.Errorf("er: %d row keys for a %d-row table", len(rowKeys), t.Len())
	}
	if n < 1 {
		n = 1
	}
	if prev == nil || prev.shards != n || !prev.blockCompatible(r) {
		plan, err := r.PlanShards(t, n, must, rowKeys)
		if err != nil {
			return nil, err
		}
		return freshRePlanned(plan, n, rowKeys), nil
	}

	key := rowKeyFn(rowKeys)
	rowIdx := rowIndexOf(t.Len(), key)
	// The re-blocking below and the resolve fan-out read the per-row
	// feature state; carry the clean rows' entries and prepare the dirty
	// ones now, while still single-threaded.
	prepared := r.prepareDelta(t, rowIdx, dirty, prev.feats, rowKeyFn(prev.featKeys))
	prev.feats = nil

	// Patch the block index in place. The dirty frontier: dirty rows,
	// every old or new member of a touched block whose pairs could have
	// appeared or vanished, and both ends of every constraint that
	// changed. A touched block spreads dirt only through the rounds in
	// which it was usable (2..MaxBlockSize members): an oversized block
	// emits no pairs on either side of the delta, so membership churn
	// inside it is inert — without this distinction a renamed row's
	// stop-gram blocks would dirty most of the corpus. Pre-edit
	// membership is read at a block's first touch, so only usable blocks
	// are ever walked.
	idx := prev.idx
	affected := make(map[string]bool, len(dirty))
	for rk := range dirty {
		affected[rk] = true
	}
	usable := func(sz int) bool { return sz >= 2 && sz <= r.MaxBlockSize }
	touched := map[string]bool{}
	edit := func(bk string) map[string]bool {
		m := idx.blocks[bk]
		if !touched[bk] {
			touched[bk] = true
			if usable(len(m)) {
				for rk := range m {
					affected[rk] = true
				}
			}
		}
		if m == nil {
			// A brand-new block key, or a block emptied and then
			// re-populated within this delta.
			m = map[string]bool{}
			idx.blocks[bk] = m
		}
		return m
	}
	leave := func(rk string) {
		for _, bk := range idx.rowBlocks[rk] {
			m := edit(bk)
			delete(m, rk)
			if len(m) == 0 {
				delete(idx.blocks, bk)
			}
		}
	}
	for rk := range dirty {
		i, ok := rowIdx[rk]
		if !ok {
			leave(rk)
			delete(idx.rowBlocks, rk)
			continue
		}
		bks := r.blockKeysOf(t, i)
		if sameBlockKeys(idx.rowBlocks[rk], bks) {
			// The row changed but not its blocking evidence (a price or
			// timestamp edit): every block's membership — and therefore
			// every pair — is untouched. The row's own component still
			// goes dirty via the affected set; nothing spreads.
			continue
		}
		leave(rk)
		idx.rowBlocks[rk] = bks
		for _, bk := range bks {
			edit(bk)[rk] = true
		}
	}
	for bk := range touched {
		if m := idx.blocks[bk]; usable(len(m)) {
			for rk := range m {
				affected[rk] = true
			}
		}
	}
	newMust := canonPairs(must, rowKeys)
	newCannot := canonPairs(cannot, rowKeys)
	for _, pk := range symDiffPairs(prev.must, newMust) {
		affected[pk[0]] = true
		affected[pk[1]] = true
	}
	for _, pk := range symDiffPairs(prev.cannot, newCannot) {
		affected[pk[0]] = true
		affected[pk[1]] = true
	}

	pairs, err := idx.pairs(rowIdx, r.MaxBlockSize)
	if err != nil {
		return nil, err
	}
	plan, comp := assemblePlan(t.Len(), n, pairs, must, key)
	plan.idx = idx
	plan.feats = r.prep

	rp := &RePlanned{
		Plan:         plan,
		Reused:       make([]bool, n),
		Roots:        make([]map[int]int, n),
		DirtyRows:    make([][]int, n),
		DirtyPairs:   make([][]Pair, n),
		AffectedRows: len(affected),
		RowsPrepared: prepared,
		rowKeys:      rowKeys,
		prevScores:   map[pairKey]float64{},
		shardScores:  make([]map[pairKey]float64, n),
	}
	for s := 0; s < n; s++ {
		rp.shardScores[s] = map[pairKey]float64{}
	}
	if prev.threshold != r.Threshold || !slices.Equal(prev.weights, r.Weights) {
		// The scoring rule moved (feedback re-learned the matcher): every
		// cluster is up for grabs, nothing is reusable.
		for s := 0; s < n; s++ {
			rp.Roots[s] = map[int]int{}
			rp.DirtyRows[s] = plan.Rows[s]
			rp.DirtyPairs[s] = plan.Pairs[s]
		}
		rp.DirtyComponents = plan.Components
		return rp, nil
	}

	// Carry forward every cached pair score whose endpoints' content held:
	// the rule is unchanged and Features reads only the two rows' values,
	// so those floats are bit-identical to recomputing. Entries incident
	// to a dirty row are deleted in place — their pairs re-score fresh.
	if prev.scores != nil {
		if len(dirty) > 0 {
			for k := range prev.scores {
				if dirty[k[0]] || dirty[k[1]] {
					delete(prev.scores, k)
				}
			}
		}
		rp.prevScores = prev.scores
		prev.scores = nil
	}

	// A component is dirty when the delta touched any of its rows — or
	// when a row cannot be accounted for in the memoized shard (a
	// defensive guard; routing is stable for clean components). Every
	// other component translates its previous clusters by reference.
	compDirty := map[int]bool{}
	for i, root := range comp {
		rk := rowKeys[i]
		if affected[rk] {
			compDirty[root] = true
			continue
		}
		if _, ok := prev.shardRoots[plan.RowShard[i]][rk]; !ok {
			compDirty[root] = true
		}
	}
	seenComp := map[int]bool{}
	for _, root := range comp {
		if !seenComp[root] {
			seenComp[root] = true
			if compDirty[root] {
				rp.DirtyComponents++
			} else {
				rp.ReusedComponents++
			}
		}
	}
	for s := 0; s < n; s++ {
		roots := make(map[int]int, len(plan.Rows[s]))
		rep := map[string]int{}
		// Rows[s] is ascending, so the first row seen per representative
		// group is the group's smallest new index — exactly the
		// representative a fresh resolve would pick.
		for _, row := range plan.Rows[s] {
			if compDirty[comp[row]] {
				rp.DirtyRows[s] = append(rp.DirtyRows[s], row)
				continue
			}
			pr := prev.shardRoots[s][rowKeys[row]]
			min, ok := rep[pr]
			if !ok {
				min = row
				rep[pr] = row
			}
			roots[row] = min
		}
		rp.Roots[s] = roots
		rp.Reused[s] = len(rp.DirtyRows[s]) == 0
		if rp.Reused[s] {
			continue
		}
		// Candidate pairs never cross components, so the dirty subset's
		// pairs are exactly the shard pairs whose endpoints lie in dirty
		// components — plan order preserved.
		for _, p := range plan.Pairs[s] {
			if compDirty[comp[p.I]] {
				rp.DirtyPairs[s] = append(rp.DirtyPairs[s], p)
			}
		}
	}
	return rp, nil
}

// freshRePlanned wraps a from-scratch plan as a RePlanned with no reuse:
// every shard resolves all of its rows (and seeds the score cache as it
// goes).
func freshRePlanned(plan *ShardPlan, n int, rowKeys []string) *RePlanned {
	rp := &RePlanned{
		Plan:            plan,
		Reused:          make([]bool, n),
		Roots:           make([]map[int]int, n),
		DirtyRows:       make([][]int, n),
		DirtyPairs:      make([][]Pair, n),
		AffectedRows:    len(plan.RowShard),
		DirtyComponents: plan.Components,
		RowsPrepared:    len(plan.RowShard),
		rowKeys:         rowKeys,
		prevScores:      map[pairKey]float64{},
		shardScores:     make([]map[pairKey]float64, n),
	}
	for s := 0; s < n; s++ {
		rp.Roots[s] = map[int]int{}
		rp.DirtyRows[s] = plan.Rows[s]
		rp.DirtyPairs[s] = plan.Pairs[s]
		rp.shardScores[s] = map[pairKey]float64{}
	}
	return rp
}

// ResolveDirty scores and clusters shard i's dirty residue (DirtyRows /
// DirtyPairs) exactly as ResolveShard would cluster those rows inside
// the full shard: components are independent under constrained
// clustering (no scored pair or must-link crosses them, and
// cross-component cannot-links are inert), so resolving the dirty
// subset and adopting the clean components' translated clusters
// reproduces the full resolve bit for bit. The cross-round score cache
// supplies every pair whose endpoints did not change — only
// dirty-incident and brand-new pairs pay for feature extraction — and
// what is computed fresh is recorded for the next round. Constraints
// are passed whole; endpoints outside the dirty rows are ignored,
// mirroring the full resolve's local filter.
func (rp *RePlanned) ResolveDirty(r *Resolver, t *dataset.Table, shard int, must, cannot []Pair) (map[int]int, int, error) {
	if shard < 0 || shard >= rp.Plan.NumShards {
		return nil, 0, fmt.Errorf("er: shard %d out of range [0,%d)", shard, rp.Plan.NumShards)
	}
	fresh := rp.shardScores[shard]
	var sc text.Scratch
	f := make([]float64, len(FeatureNames))
	score := func(p Pair) float64 {
		k := pairKeyOf(rp.rowKeys, p)
		if s, ok := rp.prevScores[k]; ok {
			return s
		}
		r.featuresInto(t, p.I, p.J, f, &sc)
		s := r.Score(f)
		fresh[k] = s
		return s
	}
	roots, conflicts := r.resolveRowsScored(t, rp.DirtyRows[shard], rp.DirtyPairs[shard],
		rp.Plan.FilterPairs(shard, must), rp.Plan.FilterPairs(shard, cannot), score)
	return roots, conflicts, nil
}

// Commit memoizes the completed streaming round: the plan state plus the
// merged score cache (valid carried-over entries and everything the
// resolve fan-out computed fresh).
func (rp *RePlanned) Commit(r *Resolver, rowKeys []string, roots []map[int]int, must, cannot []Pair) (*PlanState, error) {
	st, err := BuildPlanState(r, rp.Plan, rowKeys, roots, must, cannot)
	if err != nil {
		return nil, err
	}
	scores := rp.prevScores // owned by this round; safe to fold into
	for _, m := range rp.shardScores {
		maps.Copy(scores, m)
	}
	st.scores = scores
	return st, nil
}

// blockCompatible reports whether the memoized block index was built
// under the resolver's current blocking parameters.
func (st *PlanState) blockCompatible(r *Resolver) bool {
	return st.keyCol == r.KeyColumn && st.nameCol == r.NameColumn &&
		st.gram == r.BlockGramSize && st.maxBlock == r.MaxBlockSize
}

// sameBlockKeys reports whether two block-key lists name the same set.
// blockKeysOf is deterministic, so unchanged blocking evidence yields the
// identical slice — the fast path; the set compare covers reordered
// duplicates conservatively.
func sameBlockKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.Equal(a, b) {
		return true
	}
	set := make(map[string]bool, len(a))
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		if !set[k] {
			return false
		}
	}
	return true
}

// symDiffPairs returns the symmetric difference of two sorted canonical
// pair lists — the constraints that appeared or disappeared.
func symDiffPairs(a, b [][2]string) [][2]string {
	var out [][2]string
	i, j := 0, 0
	less := func(x, y [2]string) bool {
		if x[0] != y[0] {
			return x[0] < y[0]
		}
		return x[1] < y[1]
	}
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case less(a[i], b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
