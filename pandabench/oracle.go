package main

import (
	"fmt"
	"sort"

	"panda/internal/bitset"
	"panda/internal/query"
	"panda/internal/relation"
)

// digest is an order-independent fingerprint of a set of rows: the count
// and the wrapping sum of a 64-bit mix of each row. Two results agree when
// their digests do; comparing digests lets every op be checked in time
// linear in its output.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(row []int64) {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h ^= uint64(v)
		h *= 1099511628211
		h ^= h >> 29
	}
	// splitmix64 finalizer, so that sums of related rows do not cancel.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	d.sum += h ^ (h >> 31)
	d.n++
}

func (d digest) String() string { return fmt.Sprintf("%d rows/%016x", d.n, d.sum) }

// relDigest fingerprints a relation's rows in its column order (ascending
// variable index).
func relDigest(r *relation.Relation) digest {
	var d digest
	if r == nil {
		return d
	}
	row64 := make([]int64, len(r.Cols()))
	for row := range r.All() {
		for i, v := range row {
			row64[i] = int64(v)
		}
		d.add(row64)
	}
	return d
}

// tablesDigest fingerprints a rule model: each table's rows, tagged with
// the table's variable set.
func tablesDigest(tables map[bitset.Set]*relation.Relation) digest {
	keys := make([]bitset.Set, 0, len(tables))
	for k := range tables {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var d digest
	for _, k := range keys {
		row64 := make([]int64, 0, 8)
		for row := range tables[k].All() {
			row64 = append(row64[:0], int64(k))
			for _, v := range row {
				row64 = append(row64, int64(v))
			}
			d.add(row64)
		}
	}
	return d
}

// bindRows builds the instance of a parsed query from generated rows given
// in each atom's declared column order.
func bindRows(s *query.Schema, rels map[string][][]int64) (*query.Instance, error) {
	return query.BindInstanceRows(s, func(name string) ([][]relation.Value, int, bool) {
		rows, ok := rels[name]
		if !ok {
			return nil, 0, false
		}
		out := make([][]relation.Value, len(rows))
		for i, r := range rows {
			out[i] = []relation.Value{relation.Value(r[0]), relation.Value(r[1])}
		}
		return out, 2, true
	})
}

// fullJoinAnswer is the reference answer of a conjunctive query computed
// without PANDA: the brute-force join of all atoms, projected onto the
// free variables.
func fullJoinAnswer(q *query.Conjunctive, ins *query.Instance) (digest, bool) {
	j := ins.FullJoin()
	if j.Size() == 0 {
		return digest{}, false
	}
	if q.Free == 0 {
		return digest{}, true
	}
	out := j
	if j.Attrs() != q.Free {
		out = j.Project(q.Free)
	}
	return relDigest(out), true
}

// bodyTuples lists every tuple satisfying a rule body, in variable order,
// for model checks against answers that arrive over the wire.
func bodyTuples(ins *query.Instance) [][]int64 {
	j := ins.FullJoin()
	out := make([][]int64, 0, j.Size())
	for row := range j.All() {
		t := make([]int64, len(row))
		for i, v := range row {
			t[i] = int64(v)
		}
		out = append(out, t)
	}
	return out
}

// coversBody is the model check of Section 1.2 on decoded tables: every
// body tuple must project into some target table. vars[i] lists table i's
// variables (at most four) in column order.
func coversBody(body [][]int64, vars [][]int, tables [][][]int64) bool {
	sets := make([]map[[4]int64]bool, len(tables))
	for i, t := range tables {
		sets[i] = make(map[[4]int64]bool, len(t))
		for _, row := range t {
			var k [4]int64
			copy(k[:], row)
			sets[i][k] = true
		}
	}
	for _, b := range body {
		ok := false
		for i, vs := range vars {
			var k [4]int64
			for j, v := range vs {
				k[j] = b[v]
			}
			if sets[i][k] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
