package quality

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/text"
)

// This file adds data profiling: discovery of approximate functional
// dependencies from the data itself. The paper's wrangling process must
// "make use of all the available information" (§2.3) without a DBA who
// hand-writes integrity constraints; discovered dependencies feed the
// cost-based repair of Bohannon et al. [7] implemented in Repair.

// DiscoveredFD is an approximate functional dependency LHS -> RHS with
// its measured confidence: the fraction of rows that agree with their LHS
// group's majority RHS value.
type DiscoveredFD struct {
	LHS        []string
	RHS        string
	Confidence float64
	Groups     int // number of distinct LHS groups observed
}

// CFD converts the discovered dependency into the repairable form.
func (d DiscoveredFD) CFD() CFD { return CFD{LHS: d.LHS, RHS: d.RHS} }

// String renders the dependency with its confidence.
func (d DiscoveredFD) String() string {
	return fmt.Sprintf("%v -> %s (%.3f over %d groups)", d.LHS, d.RHS, d.Confidence, d.Groups)
}

// DiscoverFDs profiles the table for approximate FDs with single-column
// left-hand sides (the shape Repair consumes), returning those with
// confidence >= minConf and at least minGroups distinct LHS groups (to
// exclude vacuous dependencies from near-key columns). Results are
// sorted by descending confidence, then LHS/RHS names.
func DiscoverFDs(t *dataset.Table, minConf float64, minGroups int) []DiscoveredFD {
	if t.Len() == 0 {
		return nil
	}
	return discoverFDs(t.Schema(), profileColumns(t), t.Len(), minConf, minGroups)
}

// discoverFDs is DiscoverFDs over an already-encoded table of n rows.
func discoverFDs(schema dataset.Schema, prof []colProfile, n int, minConf float64, minGroups int) []DiscoveredFD {
	if minGroups < 1 {
		minGroups = 1
	}
	var out []DiscoveredFD
	for li := range schema {
		// Continuous numeric columns make meaningless determinants: a
		// float that two rows happen to share is coincidence, not a key,
		// and repairing through it propagates values across entities.
		if schema[li].Kind == dataset.KindFloat {
			continue
		}
		for ri := range schema {
			if li == ri {
				continue
			}
			conf, groups, ok := fdConfidence(prof, li, ri)
			if !ok || groups < minGroups || conf < minConf {
				continue
			}
			// A dependency whose LHS is a key (every group size 1) is
			// trivially confident and useless for repair.
			if groups == n {
				continue
			}
			out = append(out, DiscoveredFD{
				LHS:        []string{schema[li].Name},
				RHS:        schema[ri].Name,
				Confidence: conf,
				Groups:     groups,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].LHS[0] != out[j].LHS[0] {
			return out[i].LHS[0] < out[j].LHS[0]
		}
		return out[i].RHS < out[j].RHS
	})
	return out
}

// colProfile is one column's dictionary-encoded form: per row, the
// distinct id of its group key (Value.Key) and of its normalized string
// value, -1 for null. Encoding each column once replaces the string
// hashing and re-normalization the O(columns²) dependency scan used to
// repeat for every column pair — the scan was the dominant allocator in
// the refresh tail after the matcher was fixed. FD repair runs on the
// same encoding and patches it cell by cell as it rewrites values.
type colProfile struct {
	keyID  []int // per row; -1 when null
	nKeys  int
	normID []int    // per row; -1 when null
	norms  []string // normalized string per normID
}

// profileColumns dictionary-encodes every column of t. Key and
// normalized string are computed once per distinct value: string, int
// and float cells are first looked up by their raw text or bits, which
// needs no allocation; other kinds, and first sightings, by their Key.
func profileColumns(t *dataset.Table) []colProfile {
	type ids struct{ key, norm int }
	type scalar struct {
		kind dataset.Kind
		bits uint64
	}
	prof := make([]colProfile, len(t.Schema()))
	byKey := map[string]ids{}
	byStr := map[string]ids{}
	byNum := map[scalar]ids{}
	normIDs := map[string]int{}
	for ci := range prof {
		clear(byKey)
		clear(byStr)
		clear(byNum)
		clear(normIDs)
		p := &prof[ci]
		p.keyID = make([]int, t.Len())
		p.normID = make([]int, t.Len())
		for i, r := range t.Rows() {
			v := r[ci]
			var num scalar
			var e ids
			ok := false
			switch v.Kind() {
			case dataset.KindNull:
				p.keyID[i], p.normID[i] = -1, -1
				continue
			case dataset.KindString:
				e, ok = byStr[v.Str()]
			case dataset.KindInt:
				num = scalar{dataset.KindInt, uint64(v.IntVal())}
				e, ok = byNum[num]
			case dataset.KindFloat:
				num = scalar{dataset.KindFloat, math.Float64bits(v.FloatVal())}
				e, ok = byNum[num]
			}
			if !ok {
				k := v.Key()
				if e, ok = byKey[k]; !ok {
					n := text.Normalize(v.String())
					norm, seen := normIDs[n]
					if !seen {
						norm = len(normIDs)
						normIDs[n] = norm
						p.norms = append(p.norms, n)
					}
					e = ids{key: len(byKey), norm: norm}
					byKey[k] = e
				}
				switch v.Kind() {
				case dataset.KindString:
					byStr[v.Str()] = e
				case dataset.KindInt, dataset.KindFloat:
					byNum[num] = e
				}
			}
			p.keyID[i], p.normID[i] = e.key, e.norm
		}
		p.nKeys = len(byKey)
	}
	return prof
}

// fdConfidence measures how functionally li determines ri: rows agreeing
// with their group majority / rows considered. Rows with null on either
// side are skipped; ok is false when nothing could be measured. It
// counts over the dictionary-encoded ids — the same partition the string
// keys induced, so confidence is the identical integer ratio.
func fdConfidence(prof []colProfile, li, ri int) (float64, int, bool) {
	lhs, rhs := prof[li], prof[ri]
	// counts[(g, v)] for group id g and value id v; totals and maxes per
	// group id.
	counts := map[int64]int{}
	totals := make([]int, lhs.nKeys)
	maxes := make([]int, lhs.nKeys)
	for i, g := range lhs.keyID {
		v := rhs.normID[i]
		if g < 0 || v < 0 {
			continue
		}
		k := int64(g)<<32 | int64(v)
		c := counts[k] + 1
		counts[k] = c
		totals[g]++
		if c > maxes[g] {
			maxes[g] = c
		}
	}
	agree, total, groups := 0, 0, 0
	for g, n := range totals {
		if n == 0 {
			continue
		}
		groups++
		agree += maxes[g]
		total += n
	}
	if total == 0 {
		return 0, 0, false
	}
	return float64(agree) / float64(total), groups, true
}

// ProfileAndRepair discovers near-exact dependencies (confidence in
// [minConf, 1)) and repairs their violations in place, returning the
// dependencies used and the number of cells changed. Exact dependencies
// (confidence 1) have nothing to repair; dependencies below minConf are
// too unreliable to act on — acting on weak evidence is exactly what §4.2
// warns against.
func ProfileAndRepair(t *dataset.Table, minConf float64) ([]DiscoveredFD, int, error) {
	used, changed, _, err := ProfileAndRepairRows(t, minConf)
	return used, changed, err
}

// ProfileAndRepairRows is ProfileAndRepair reporting the repaired row
// indices (ascending, deduplicated across dependencies). The streaming
// refresh planner diffs exactly these rows — plus the previous round's —
// against the memoized union, since FD repair is the one stage that can
// rewrite a row whose source did not change.
//
// Repair runs on the column encoding discovery already built, not through
// Violations: each dependency is one counting pass over dense ids, and the
// encoding is patched after each dependency so later ones see earlier
// repairs — the same cells rewritten to the same values as looping
// RepairRows over the dependencies one at a time.
func ProfileAndRepairRows(t *dataset.Table, minConf float64) ([]DiscoveredFD, int, []int, error) {
	if t.Len() == 0 {
		return nil, 0, []int{}, nil
	}
	schema := t.Schema()
	prof := profileColumns(t)
	fds := discoverFDs(schema, prof, t.Len(), minConf, 2)
	changed := 0
	touched := make([]bool, t.Len())
	var sc repairScratch
	var used []DiscoveredFD
	for _, fd := range fds {
		if fd.Confidence >= 1 {
			continue
		}
		n := repairFD(t, prof, schema.Index(fd.LHS[0]), schema.Index(fd.RHS), touched, &sc)
		if n > 0 {
			used = append(used, fd)
			changed += n
		}
	}
	rows := []int{}
	for i, ok := range touched {
		if ok {
			rows = append(rows, i)
		}
	}
	return used, changed, rows, nil
}

// repairScratch is repairFD's reusable working memory.
type repairScratch struct {
	start, order, cnt, first, vals []int
}

// grow returns s resized to n zeroed entries, reusing its capacity.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// repairFD repairs the single-column dependency li -> ri on the encoded
// table, exactly as RepairRows(t, []CFD{{LHS: [li], RHS: ri}}) would:
// rows with a null RHS sit out; rows group by the LHS key id, all
// null-LHS rows forming one group (Record.Key renders every null the
// same); a group with a strict majority RHS — counted by normalized
// value, ties broken by the smaller normalized string — rewrites every
// dissenting row to the value of the group's first row holding the
// majority. The RHS column's encoding is patched for every rewritten
// cell. Returns the number of cells changed and marks their rows in
// touched.
func repairFD(t *dataset.Table, prof []colProfile, li, ri int, touched []bool, sc *repairScratch) int {
	lhs, rhs := prof[li].keyID, &prof[ri]
	// Counting sort of the rows by group (g = key id + 1, 0 for null),
	// row order kept within each group.
	groups := prof[li].nKeys + 1
	sc.start = grow(sc.start, groups+1)
	for i, v := range rhs.normID {
		if v >= 0 {
			sc.start[lhs[i]+2]++
		}
	}
	for g := 1; g <= groups; g++ {
		sc.start[g] += sc.start[g-1]
	}
	sc.order = grow(sc.order, sc.start[groups])
	for i, v := range rhs.normID {
		if v >= 0 {
			g := lhs[i] + 1
			sc.order[sc.start[g]] = i
			sc.start[g]++
		}
	}
	// start[g] now ends group g; group g begins where g-1 ended.
	sc.cnt = grow(sc.cnt, len(rhs.norms))
	sc.first = grow(sc.first, len(rhs.norms))
	changed := 0
	lo := 0
	for g := 0; g < groups; g++ {
		rows := sc.order[lo:sc.start[g]]
		lo = sc.start[g]
		// A strict majority of at least two next to any dissent needs
		// three rows.
		if len(rows) < 3 {
			continue
		}
		sc.vals = sc.vals[:0]
		for _, row := range rows {
			v := rhs.normID[row]
			if sc.cnt[v] == 0 {
				sc.first[v] = row
				sc.vals = append(sc.vals, v)
			}
			sc.cnt[v]++
		}
		best, bestN := -1, -1
		for _, v := range sc.vals {
			if n := sc.cnt[v]; n > bestN || (n == bestN && rhs.norms[v] < rhs.norms[best]) {
				best, bestN = v, n
			}
		}
		for _, v := range sc.vals {
			sc.cnt[v] = 0
		}
		if len(sc.vals) <= 1 || bestN < 2 || bestN*2 <= len(rows) {
			continue
		}
		rep := sc.first[best]
		repVal, repKey := t.Row(rep)[ri], rhs.keyID[rep]
		for _, row := range rows {
			if rhs.normID[row] != best {
				t.Row(row)[ri] = repVal
				rhs.normID[row] = best
				rhs.keyID[row] = repKey
				touched[row] = true
				changed++
			}
		}
	}
	return changed
}
