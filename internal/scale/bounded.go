// Package scale implements the §4.3 scalability substrate: bounded
// (scale-independent) query evaluation using access/indexing information in
// the spirit of [2, 17], static under-approximation of conjunctive queries
// following Barceló-Libkin-Romero [4], and a partitioned parallel executor
// standing in for the map/reduce platforms ETL vendors compile into.
package scale

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dataset"
)

// Indexed wraps a table with hash indexes on selected columns and counts
// the rows touched by each access — the "work" measure that bounded
// evaluation keeps independent of table size.
type Indexed struct {
	table   *dataset.Table
	indexes map[string]map[string][]int
	touched int
}

// NewIndexed builds indexes on the named columns.
func NewIndexed(t *dataset.Table, cols ...string) (*Indexed, error) {
	ix := &Indexed{table: t, indexes: map[string]map[string][]int{}}
	for _, col := range cols {
		c := t.Schema().Index(col)
		if c < 0 {
			return nil, fmt.Errorf("scale: index column %q missing", col)
		}
		m := map[string][]int{}
		for i, r := range t.Rows() {
			if r[c].IsNull() {
				continue
			}
			k := r[c].Key()
			m[k] = append(m[k], i)
		}
		ix.indexes[col] = m
	}
	return ix, nil
}

// Table returns the underlying table.
func (ix *Indexed) Table() *dataset.Table { return ix.table }

// Touched returns the cumulative number of rows accessed.
func (ix *Indexed) Touched() int { return ix.touched }

// ResetWork zeroes the touched counter.
func (ix *Indexed) ResetWork() { ix.touched = 0 }

// Lookup returns the rows where col = v, touching only those rows. It
// fails when no index exists on col (the bounded-evaluation contract: no
// fallback scans).
func (ix *Indexed) Lookup(col string, v dataset.Value) ([]dataset.Record, error) {
	m, ok := ix.indexes[col]
	if !ok {
		return nil, fmt.Errorf("scale: no index on %q — bounded evaluation refused", col)
	}
	rows := m[v.Key()]
	ix.touched += len(rows)
	out := make([]dataset.Record, len(rows))
	for i, r := range rows {
		out[i] = ix.table.Row(r)
	}
	return out, nil
}

// ScanSelect is the unbounded baseline: a full scan applying the same
// predicate, touching every row.
func (ix *Indexed) ScanSelect(col string, v dataset.Value) []dataset.Record {
	c := ix.table.Schema().Index(col)
	var out []dataset.Record
	for _, r := range ix.table.Rows() {
		ix.touched++
		if c >= 0 && r[c].Equal(v) {
			out = append(out, r)
		}
	}
	return out
}

// BoundedJoin evaluates σ_{leftCol=v}(L) ⋈_{L.joinLeft = R.joinRight} R
// touching only index-reachable rows of both sides. Both access paths must
// be indexed.
func BoundedJoin(left *Indexed, leftCol string, v dataset.Value, joinLeft string, right *Indexed, joinRight string) ([][2]dataset.Record, error) {
	lrows, err := left.Lookup(leftCol, v)
	if err != nil {
		return nil, err
	}
	jc := left.table.Schema().Index(joinLeft)
	if jc < 0 {
		return nil, fmt.Errorf("scale: join column %q missing on left", joinLeft)
	}
	var out [][2]dataset.Record
	for _, lr := range lrows {
		if lr[jc].IsNull() {
			continue
		}
		rrows, err := right.Lookup(joinRight, lr[jc])
		if err != nil {
			return nil, err
		}
		for _, rr := range rrows {
			out = append(out, [2]dataset.Record{lr, rr})
		}
	}
	return out, nil
}

// ScanJoin is the unbounded baseline for BoundedJoin: nested scans.
func ScanJoin(left *Indexed, leftCol string, v dataset.Value, joinLeft string, right *Indexed, joinRight string) [][2]dataset.Record {
	lc := left.table.Schema().Index(leftCol)
	jc := left.table.Schema().Index(joinLeft)
	rc := right.table.Schema().Index(joinRight)
	// Single scan of right to build a transient map (still O(|R|) work).
	rmap := map[string][]dataset.Record{}
	for _, rr := range right.table.Rows() {
		right.touched++
		if !rr[rc].IsNull() {
			rmap[rr[rc].Key()] = append(rmap[rr[rc].Key()], rr)
		}
	}
	var out [][2]dataset.Record
	for _, lr := range left.table.Rows() {
		left.touched++
		if lc < 0 || !lr[lc].Equal(v) || lr[jc].IsNull() {
			continue
		}
		for _, rr := range rmap[lr[jc].Key()] {
			out = append(out, [2]dataset.Record{lr, rr})
		}
	}
	return out
}

// Partition splits row indices into n contiguous chunks for parallel
// processing.
func Partition(total, n int) [][2]int {
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	var out [][2]int
	if total == 0 {
		return out
	}
	size := (total + n - 1) / n
	for lo := 0; lo < total; lo += size {
		hi := lo + size
		if hi > total {
			hi = total
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// ParallelMap applies fn to each row range in parallel with the given
// worker count and merges the per-partition results in partition order —
// the map/reduce-shaped executor of §4.3.
func ParallelMap[T any](t *dataset.Table, workers int, fn func(rows []dataset.Record) T) []T {
	parts := Partition(t.Len(), workers)
	out := make([]T, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			out[i] = fn(t.Rows()[lo:hi])
		}(i, p[0], p[1])
	}
	wg.Wait()
	return out
}

// GroupCountParallel is a demonstration reducer: a parallel group-by-count
// over a column, merging per-partition maps.
func GroupCountParallel(t *dataset.Table, col string, workers int) (map[string]int, error) {
	c := t.Schema().Index(col)
	if c < 0 {
		return nil, fmt.Errorf("scale: column %q missing", col)
	}
	partials := ParallelMap(t, workers, func(rows []dataset.Record) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			if !r[c].IsNull() {
				m[r[c].String()]++
			}
		}
		return m
	})
	out := map[string]int{}
	for _, p := range partials {
		for k, v := range p {
			out[k] += v
		}
	}
	return out, nil
}

// TopKeys returns the n most frequent keys of a count map, deterministic.
func TopKeys(counts map[string]int, n int) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if n < len(keys) {
		keys = keys[:n]
	}
	return keys
}
