package core

import (
	"context"
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"panda/internal/bitset"
	"panda/internal/bounds"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

func triangleQuery() *query.Conjunctive {
	s := query.Schema{
		NumVars:  3,
		VarNames: []string{"A", "B", "C"},
		Atoms: []query.Atom{
			{Name: "R", Vars: bitset.Of(0, 1)},
			{Name: "S", Vars: bitset.Of(1, 2)},
			{Name: "T", Vars: bitset.Of(0, 2)},
		},
	}
	return &query.Conjunctive{Schema: s, Free: bitset.Full(3)}
}

func randomBinaryInstance(seed int64, s *query.Schema, n, dom int) *query.Instance {
	rng := rand.New(rand.NewSource(seed))
	ins := query.NewInstance(s)
	for i := range ins.Relations {
		// Exactly n distinct tuples, so instances built with the same n
		// produce identical cardinality constraints (needs dom² ≥ n).
		for ins.Relations[i].Size() < n {
			ins.Relations[i].Insert([]relation.Value{
				relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
		}
	}
	return ins
}

// TestPreparedMatchesUnprepared is the golden comparison of the acceptance
// criteria: for the triangle and four-cycle workloads, prepare+execute in
// every mode must return exactly the rows of the brute-force join, and the
// full plan's bound must be the AGM bound (which the polymatroid bound
// equals under cardinality constraints alone, Proposition 3.2).
func TestPreparedMatchesUnprepared(t *testing.T) {
	cases := []struct {
		name string
		q    *query.Conjunctive
		seed int64
	}{
		{"triangle", triangleQuery(), 11},
		{"four-cycle", fourCycleQuery(), 23},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins := randomBinaryInstance(tc.seed, &tc.q.Schema, 60, 12)
			want := ins.FullJoin().SortedRows()
			for _, mode := range []plan.Mode{plan.ModeFhtw, plan.ModeSubw, plan.ModeFull} {
				ex, err := planAndExecute(tc.q, ins, nil, mode, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if ex.NonEmpty != (len(want) > 0) || !reflect.DeepEqual(ex.Out.SortedRows(), want) {
					t.Fatalf("%v prepared path diverges from brute force: %d rows vs %d", mode, ex.Out.Size(), len(want))
				}
				if mode != plan.ModeFull {
					continue
				}
				logNs := make([]*big.Rat, len(tc.q.Atoms))
				for i := range logNs {
					logNs[i] = query.LogOf(int64(ins.Relations[i].Size()))
				}
				agm, err := bounds.AGM(tc.q.Hypergraph(), logNs)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Bound.Cmp(agm) != 0 {
					t.Fatalf("full prepared bound %v ≠ AGM %v", ex.Bound, agm)
				}
			}
		})
	}
}

// TestPreparedBooleanMatches: the Boolean four-cycle on a random instance
// answers non-emptiness of the brute-force join, with no output relation.
func TestPreparedBooleanMatches(t *testing.T) {
	q := fourCycleQuery()
	q.Free = 0
	ins := randomBinaryInstance(5, &q.Schema, 40, 10)
	want := ins.FullJoin().Size() > 0
	ex, err := planAndExecute(q, ins, nil, plan.ModeSubw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.NonEmpty != want || ex.Out != nil {
		t.Fatalf("prepared Boolean answer %v (rel %v), want %v (nil)", ex.NonEmpty, ex.Out, want)
	}
}

// TestPreparedRenamedCacheHit: a cache-hit plan for a variable-renamed
// query must still produce the exact query answer when executed.
func TestPreparedRenamedCacheHit(t *testing.T) {
	pl := plan.NewPlanner(8)
	q1 := fourCycleQuery()
	ins1 := randomBinaryInstance(7, &q1.Schema, 50, 10)
	cons1 := CompleteConstraints(&q1.Schema, ins1, nil)
	if _, err := pl.Prepare(q1, cons1, plan.ModeFhtw); err != nil {
		t.Fatal(err)
	}
	// The same 4-cycle with rotated variable roles and shuffled atoms:
	// edges (1,2),(2,3),(3,0),(0,1) listed out of order.
	s2 := query.Schema{
		NumVars:  4,
		VarNames: []string{"W", "X", "Y", "Z"},
		Atoms: []query.Atom{
			{Name: "E3", Vars: bitset.Of(3, 0)},
			{Name: "E1", Vars: bitset.Of(1, 2)},
			{Name: "E2", Vars: bitset.Of(2, 3)},
			{Name: "E0", Vars: bitset.Of(0, 1)},
		},
	}
	q2 := &query.Conjunctive{Schema: s2, Free: bitset.Full(4)}
	ins2 := randomBinaryInstance(9, &s2, 50, 10)
	cons2 := CompleteConstraints(&s2, ins2, nil)
	// Equal sizes everywhere (same n) keep the constraint multiset
	// isomorphic, so this must hit.
	p2, err := pl.Prepare(q2, cons2, plan.ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.Hits != 1 {
		t.Fatalf("renamed query did not hit the cache: %v", st)
	}
	ex, err := (&Executor{}).Execute(context.Background(), p2, ins2)
	if err != nil {
		t.Fatal(err)
	}
	want := ins2.FullJoin().SortedRows()
	if !reflect.DeepEqual(ex.Out.SortedRows(), want) {
		t.Fatalf("rebound plan answer has %d rows, brute force %d", ex.Out.Size(), len(want))
	}
}

// TestPreparedConcurrentEval: one shared plan executed from many
// goroutines over distinct instances; run with -race to certify the plan is
// read-only during execution.
func TestPreparedConcurrentEval(t *testing.T) {
	pl := plan.NewPlanner(4)
	q := triangleQuery()
	probe := randomBinaryInstance(1, &q.Schema, 30, 8)
	cons := CompleteConstraints(&q.Schema, probe, nil)
	p, err := pl.Prepare(q, cons, plan.ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Same sizes as the probe so the plan's constraints hold.
			ins := randomBinaryInstance(int64(100+g), &q.Schema, 30, 8)
			for i := 0; i < 3; i++ {
				ex, err := (&Executor{}).Execute(context.Background(), p, ins)
				if err != nil {
					errs <- err
					return
				}
				want := ins.FullJoin().SortedRows()
				if !reflect.DeepEqual(ex.Out.SortedRows(), want) {
					errs <- errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent execute diverged from brute force" }
