package er

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
)

// PreparedDiff compares r's installed feature state for t against a
// fresh Prepare under the same configuration, row for row, and checks
// the registries' bookkeeping: every row's ids name its own values and
// each id's reference count equals the rows holding it. Distinct-value
// ids may differ from a fresh Prepare's — carried registries keep dead
// slots — so rows are compared by value, not by id.
func PreparedDiff(r *Resolver, t *dataset.Table) error {
	p := r.prep
	if !p.valid(r, t) {
		return fmt.Errorf("no prepared state for the table")
	}
	fresh := *r
	fresh.Prepare(t)
	q := fresh.prep
	for i := range q.rows {
		a, b := &p.rows[i], &q.rows[i]
		switch {
		case a.keyOK != b.keyOK || a.key != b.key:
			return fmt.Errorf("row %d: key %v %q, fresh %v %q", i, a.keyOK, a.key, b.keyOK, b.key)
		case a.nameOK != b.nameOK || string(a.name) != string(b.name) || !slices.EqualFunc(a.nameToks, b.nameToks, slices.Equal[[]rune]):
			return fmt.Errorf("row %d: name %q, fresh %q", i, string(a.name), string(b.name))
		case a.secOK != b.secOK || a.sec != b.sec || string(a.secRunes) != string(b.secRunes):
			return fmt.Errorf("row %d: secondary %q, fresh %q", i, a.sec, b.sec)
		case a.numOK != b.numOK || math.Float64bits(a.num) != math.Float64bits(b.num):
			return fmt.Errorf("row %d: numeric %v, fresh %v", i, a.num, b.num)
		case !slices.Equal(a.blockKeys, b.blockKeys):
			return fmt.Errorf("row %d: block keys %v, fresh %v", i, a.blockKeys, b.blockKeys)
		}
		if a.nameOK && (string(p.names[a.nameID]) != string(a.name) || p.nameIDs[string(a.name)] != a.nameID) {
			return fmt.Errorf("row %d: name id %d does not name %q", i, a.nameID, string(a.name))
		}
		if a.secOK && (p.secStrs[a.secID] != a.sec || p.secIDs[a.sec] != a.secID) {
			return fmt.Errorf("row %d: secondary id %d does not name %q", i, a.secID, a.sec)
		}
	}
	nameRefs := make([]int, len(p.names))
	secRefs := make([]int, len(p.secStrs))
	for i := range p.rows {
		if rf := &p.rows[i]; rf.nameOK {
			nameRefs[rf.nameID]++
		}
		if rf := &p.rows[i]; rf.secOK {
			secRefs[rf.secID]++
		}
	}
	live := func(refs []int) int {
		n := 0
		for _, c := range refs {
			if c > 0 {
				n++
			}
		}
		return n
	}
	if !slices.Equal(nameRefs, p.nameRefs) || live(nameRefs) != p.liveNames {
		return fmt.Errorf("name reference counts drifted")
	}
	if !slices.Equal(secRefs, p.secRefs) || live(secRefs) != p.liveSecs {
		return fmt.Errorf("secondary reference counts drifted")
	}
	return nil
}
