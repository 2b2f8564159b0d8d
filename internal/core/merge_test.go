package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// skewedInstance fills every binary atom with n random edges, a third of
// them on one heavy first-column value, so degree decompositions split
// into several buckets.
func skewedInstance(rng *rand.Rand, s *query.Schema, n, dom int) *query.Instance {
	ins := query.NewInstance(s)
	for _, r := range ins.Relations {
		for k := 0; k < n; k++ {
			a := rng.Intn(dom)
			if rng.Intn(3) == 0 {
				a = 0
			}
			r.Insert([]relation.Value{relation.Value(a), relation.Value(rng.Intn(dom))})
		}
	}
	return ins
}

// snapshotInstance deep-copies every instance relation and, for k > 1,
// every memoized hash partition the executor will read.
func snapshotInstance(s *query.Schema, ins *query.Instance, k int) []*relation.Relation {
	var out []*relation.Relation
	for _, r := range instanceRelations(s, ins, k) {
		out = append(out, r.Clone(r.Name))
	}
	return out
}

// instanceRelations lists the instance relations followed, for k > 1, by
// the shared partitions of the key-covering ones.
func instanceRelations(s *query.Schema, ins *query.Instance, k int) []*relation.Relation {
	rels := append([]*relation.Relation(nil), ins.Relations...)
	if k > 1 {
		key := query.PartitionKey(s)
		for i, a := range s.Atoms {
			if key.SubsetOf(a.Vars) {
				rels = append(rels, ins.Relations[i].Partition(k, key)...)
			}
		}
	}
	return rels
}

func assertUntouched(t *testing.T, what string, s *query.Schema, ins *query.Instance, k int, before []*relation.Relation) {
	t.Helper()
	for i, r := range instanceRelations(s, ins, k) {
		if r.Size() != before[i].Size() || !r.Equal(before[i]) {
			t.Fatalf("%s: input relation %s changed: %d rows, %d before", what, r.Name, r.Size(), before[i].Size())
		}
	}
}

// TestRunsLeaveInstanceUntouched is the ownership regression for in-place
// table folds: base cases return input guards — instance relations or
// their shared hash partitions — as target tables, so a merge that
// inserted into the first table it was handed would grow the caller's
// data. Rule runs, including one whose target is an atom's schema, and
// ModeSubw runs whose decompositions split into several degree buckets
// must leave every input relation as it was.
func TestRunsLeaveInstanceUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	atomTarget := pathRule()
	atomTarget.Targets = []bitset.Set{bitset.Of(0, 1), bitset.Of(1, 2, 3)}
	q := fourCycleQuery()
	for trial := 0; trial < 6; trial++ {
		for _, parts := range []int{1, 3} {
			ex := &Executor{Partitions: parts}
			what := fmt.Sprintf("trial %d, %d partitions", trial, parts)

			for _, p := range []*query.Disjunctive{pathRule(), atomTarget} {
				ins := skewedInstance(rng, &p.Schema, 60, 12)
				before := snapshotInstance(&p.Schema, ins, parts)
				res, err := ex.EvalDisjunctive(context.Background(), p, ins, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertUntouched(t, what+", rule", &p.Schema, ins, parts, before)
				if ok, err := ins.IsModel(p, res.Tables); err != nil || !ok {
					t.Fatalf("%s: rule output is not a model (%v)", what, err)
				}
			}

			ins := skewedInstance(rng, &q.Schema, 60, 12)
			before := snapshotInstance(&q.Schema, ins, parts)
			pl, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, nil), plan.ModeSubw)
			if err != nil {
				t.Fatal(err)
			}
			out, err := ex.Execute(context.Background(), pl, ins)
			if err != nil {
				t.Fatal(err)
			}
			assertUntouched(t, what+", subw 4-cycle", &q.Schema, ins, parts, before)
			if out.Stats.Partitions == 0 || out.Stats.Subproblems < 2*out.Stats.Partitions {
				t.Fatalf("%s: %d decompositions into %d buckets; want several buckets each",
					what, out.Stats.Partitions, out.Stats.Subproblems)
			}
			if want := ins.FullJoin(); !out.Out.Equal(want) {
				t.Fatalf("%s: subw output %d rows, full join %d", what, out.Out.Size(), want.Size())
			}
		}
	}
}

// TestPartitionedFullOutputIsASet checks the probe-free concatenation of
// ModeFull partition outputs: every output row is distinct, and the rows
// match the unpartitioned run.
func TestPartitionedFullOutputIsASet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := fourCycleQuery()
	ins := skewedInstance(rng, &q.Schema, 80, 10)
	pl, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, nil), plan.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := (&Executor{}).Execute(context.Background(), pl, ins)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 7} {
		par, err := (&Executor{Partitions: k}).Execute(context.Background(), pl, ins)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[4]relation.Value]bool{}
		for row := range par.Out.All() {
			key := [4]relation.Value(row)
			if seen[key] {
				t.Fatalf("K=%d: row %v emitted by two partitions", k, row)
			}
			seen[key] = true
		}
		if !par.Out.Equal(seq.Out) {
			t.Fatalf("K=%d: %d rows, unpartitioned %d", k, par.Out.Size(), seq.Out.Size())
		}
	}
}

func TestTableUnionClonesOnce(t *testing.T) {
	rel := func(name string, rows ...[2]relation.Value) *relation.Relation {
		r := relation.New(name, bitset.Of(0, 1))
		for _, row := range rows {
			r.Insert(row[:])
		}
		return r
	}
	empty := rel("E")
	a := rel("A", [2]relation.Value{1, 1}, [2]relation.Value{2, 2})
	b := rel("B", [2]relation.Value{2, 2}, [2]relation.Value{3, 3})
	c := rel("C", [2]relation.Value{4, 4})

	var u tableUnion
	u.add(empty)
	u.add(a)
	if u.t != a || u.owned {
		t.Fatal("an empty first table should give way to the next one, uncloned")
	}
	u.add(empty)
	if u.t != a {
		t.Fatal("folding an empty table should not clone")
	}
	u.add(b)
	if u.t == a || !u.owned {
		t.Fatal("the first real fold must clone")
	}
	clone := u.t
	u.add(c)
	if u.t != clone {
		t.Fatal("later folds must insert into the same clone")
	}
	if a.Size() != 2 || b.Size() != 2 || c.Size() != 1 {
		t.Fatal("a fold changed an input table")
	}
	got := u.t.Rows()
	want := [][]relation.Value{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	if len(got) != len(want) {
		t.Fatalf("union %v, want %v", got, want)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("union %v, want %v in arrival order", got, want)
		}
	}
}

// BenchmarkBucketMerge measures the per-target table fold of a
// decomposition step: 32 sibling bucket tables of 2048 rows each, half of
// every table overlapping its predecessor, unioned in arrival order.
func BenchmarkBucketMerge(b *testing.B) {
	const buckets, rows = 32, 2048
	target := bitset.Of(0, 1, 2)
	srcs := make([]map[bitset.Set]*relation.Relation, buckets)
	for k := range srcs {
		r := relation.New(fmt.Sprintf("T%d", k), target)
		for i := 0; i < rows; i++ {
			v := relation.Value(k*rows/2 + i)
			r.Insert([]relation.Value{v, v % 97, v % 89})
		}
		srcs[k] = map[bitset.Set]*relation.Relation{target: r}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := tableMerger{}
		for _, src := range srcs {
			m.add(src)
		}
		if got := m.tables()[target].Size(); got != (buckets+1)*rows/2 {
			b.Fatalf("merged %d rows", got)
		}
	}
}
