package core

import (
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// fiveCycle builds the C5 query — odd cycle, five tree decompositions,
// exercising the multi-transversal machinery beyond the paper's C4.
func fiveCycle() *query.Conjunctive {
	s := query.Schema{NumVars: 5}
	for i := 0; i < 5; i++ {
		s.Atoms = append(s.Atoms, query.Atom{
			Name: "E" + string(rune('0'+i)),
			Vars: bitset.Of(i, (i+1)%5),
		})
	}
	return &query.Conjunctive{Schema: s, Free: bitset.Full(5)}
}

func TestEvalSubwFiveCycle(t *testing.T) {
	q := fiveCycle()
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 3; trial++ {
		ins := query.NewInstance(&q.Schema)
		for i := range ins.Relations {
			for k := 0; k < 20; k++ {
				ins.Relations[i].Insert([]relation.Value{
					relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4))})
			}
		}
		want := ins.FullJoin()
		ex, err := planAndExecute(q, ins, nil, plan.ModeSubw, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ex.Out.Equal(want) {
			t.Fatalf("trial %d: subw eval %d vs %d tuples", trial, ex.Out.Size(), want.Size())
		}
	}
}

func TestEvalFhtwFiveCycleBoolean(t *testing.T) {
	q := fiveCycle()
	q.Free = 0
	ins := query.NewInstance(&q.Schema)
	// A single 5-cycle 0→1→2→3→4→0 on constant values.
	for i := range ins.Relations {
		ins.Relations[i].Insert([]relation.Value{7, 7})
	}
	ex, err := planAndExecute(q, ins, nil, plan.ModeFhtw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.NonEmpty {
		t.Fatal("self-loop 5-cycle exists")
	}
}

// TestEvalDisjunctiveThreeTargets exercises a rule with three targets,
// where λ mass may split unevenly.
func TestEvalDisjunctiveThreeTargets(t *testing.T) {
	s := query.Schema{
		NumVars: 4,
		Atoms: []query.Atom{
			{Name: "R", Vars: bitset.Of(0, 1)},
			{Name: "S", Vars: bitset.Of(1, 2)},
			{Name: "T", Vars: bitset.Of(2, 3)},
		},
	}
	p := &query.Disjunctive{
		Schema: s,
		Targets: []bitset.Set{
			bitset.Of(0, 1), bitset.Of(1, 2, 3), bitset.Of(0, 2),
		},
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		ins := query.NewInstance(&s)
		for i := range ins.Relations {
			for k := 0; k < 25; k++ {
				ins.Relations[i].Insert([]relation.Value{
					relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5))})
			}
		}
		res, err := evalRule(p, ins, nil, Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ok, err := ins.IsModel(p, res.Tables)
		if err != nil || !ok {
			t.Fatalf("trial %d: not a model (%v)", trial, err)
		}
	}
}

// TestEvalDisjunctiveDuplicateTargets: duplicated targets are deduped.
func TestEvalDisjunctiveDuplicateTargets(t *testing.T) {
	p := pathRule()
	p.Targets = append(p.Targets, p.Targets[0])
	ins := randomPathInstance(rand.New(rand.NewSource(81)), p, 20, 5)
	res, err := evalRule(p, ins, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ins.IsModel(p, res.Tables)
	if err != nil || !ok {
		t.Fatalf("model: %v %v", ok, err)
	}
}

// TestEvalFullDegreeBoundExample12b runs the full bound-(b) pipeline: the
// degree-constrained 4-cycle where |Q| ≤ D·N^{3/2} (Example 1.2(b)) on its
// tight instance.
func TestEvalFullDegreeBoundExample12b(t *testing.T) {
	q := fourCycleQuery()
	k, d := 5, 2
	ins := query.NewInstance(&q.Schema)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if (j-i%k+k)%k < d {
				ins.Relations[0].Insert([]relation.Value{relation.Value(i), relation.Value(j)})
			}
			ins.Relations[1].Insert([]relation.Value{relation.Value(i), relation.Value(j)})
			ins.Relations[2].Insert([]relation.Value{relation.Value(i), relation.Value(j)})
			ins.Relations[3].Insert([]relation.Value{relation.Value(j), relation.Value(i)})
		}
	}
	dcs := []query.DegreeConstraint{
		query.Degree(bitset.Of(0), bitset.Of(0, 1), int64(d), 0),
		query.Degree(bitset.Of(1), bitset.Of(0, 1), int64(d), 0),
	}
	if err := ins.Check(&q.Schema, dcs); err != nil {
		t.Fatal(err)
	}
	ex, err := planAndExecute(q, ins, dcs, plan.ModeFull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ins.FullJoin()
	if !ex.Out.Equal(want) {
		t.Fatalf("eval %d vs %d tuples", ex.Out.Size(), want.Size())
	}
	if want.Size() != d*k*k*k {
		t.Fatalf("tight instance yields %d, want D·K³ = %d", want.Size(), d*k*k*k)
	}
}
