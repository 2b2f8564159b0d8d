package panda

import (
	"math/big"
	"testing"
)

// TestFacadeFourCycle drives the public API end to end on the paper's
// running example.
func TestFacadeFourCycle(t *testing.T) {
	q := FourCycleQuery()
	ins := CycleWorstCase(q, 12)
	db := Open()
	defer db.Close()
	res, err := db.Eval(q, ins, nil, WithMode(ModeFull))
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 144 {
		t.Fatalf("|Q| = %d, want 144", res.Size())
	}
	if res.Bound == nil {
		t.Fatal("missing bound")
	}
}

func TestFacadeBounds(t *testing.T) {
	q := FourCycleQuery()
	var dcs []Constraint
	for i, a := range q.Atoms {
		dcs = append(dcs, Cardinality(a.Vars, 1024, i)) // log N = 10 exactly
	}
	rep, err := Bounds(q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	twenty := big.NewRat(20, 1)
	if rep.AGM.Cmp(twenty) != 0 {
		t.Fatalf("AGM = %v, want 20 (N² with log N = 10)", rep.AGM)
	}
	if rep.Polymatroid.Cmp(rep.AGM) != 0 {
		t.Fatalf("polymatroid %v ≠ AGM %v under CC (Prop 3.2)", rep.Polymatroid, rep.AGM)
	}
	if rep.IntegralCover.Cmp(twenty) != 0 {
		t.Fatalf("ρ = %v, want 20", rep.IntegralCover)
	}
	if rep.Vertex.Cmp(big.NewRat(40, 1)) != 0 {
		t.Fatalf("VB = %v, want 40", rep.Vertex)
	}
}

func TestFacadeWidths(t *testing.T) {
	rep, err := Widths(FourCycleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Treewidth != 2 || rep.FHTW.Cmp(big.NewRat(2, 1)) != 0 || rep.Subw.Cmp(big.NewRat(3, 2)) != 0 {
		t.Fatalf("widths: %+v", rep)
	}
}

func TestFacadeRule(t *testing.T) {
	p := PathRule()
	ins := RandomInstance(5, &p.Schema, 30, 6)
	db := Open()
	defer db.Close()
	res, err := db.EvalRule(p, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ins.IsModel(p, res.Tables)
	if err != nil || !ok {
		t.Fatalf("model: %v %v", ok, err)
	}
	b, err := RuleBound(p, InstanceCardinalities(&p.Schema, ins))
	if err != nil {
		t.Fatal(err)
	}
	if b.Sign() <= 0 {
		t.Fatalf("bound %v", b)
	}
}

func TestFacadeZhangYeung(t *testing.T) {
	poly, ent, err := ZhangYeungGap()
	if err != nil {
		t.Fatal(err)
	}
	if poly.Cmp(big.NewRat(4, 1)) != 0 || ent.Cmp(big.NewRat(43, 11)) != 0 {
		t.Fatalf("gap: %v vs %v", poly, ent)
	}
}

func TestFacadeParseAndEval(t *testing.T) {
	res, err := Parse(`Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`)
	if err != nil {
		t.Fatal(err)
	}
	ins := RandomInstance(9, &res.Rule.Schema, 25, 5)
	db := Open()
	defer db.Close()
	out, err := db.Eval(res.Conj, ins, nil, WithMode(ModeFull))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rel.Equal(ins.FullJoin()) {
		t.Fatal("parsed triangle evaluation mismatch")
	}
}

func TestFacadeBooleanSubw(t *testing.T) {
	q := BooleanFourCycle()
	ins := CycleWorstCase(q, 16)
	db := Open()
	defer db.Close()
	res, err := db.Eval(q, ins, nil, WithMode(ModeSubw))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("cycle exists")
	}
	if res.Stats.MaxIntermediate > 16*16 {
		t.Fatalf("intermediate %d reached the quadratic regime", res.Stats.MaxIntermediate)
	}
}
