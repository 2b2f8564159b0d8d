package core

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// evalRule runs PANDA on a disjunctive rule with a sequential Executor.
func evalRule(p *query.Disjunctive, ins *query.Instance, dcs []query.DegreeConstraint, opt Options) (*Result, error) {
	return (&Executor{Opt: opt}).EvalDisjunctive(context.Background(), p, ins, dcs)
}

// planAndExecute plans q in the given mode (uncached) against the
// instance's completed constraint set and runs the plan with a sequential
// Executor.
func planAndExecute(q *query.Conjunctive, ins *query.Instance, dcs []query.DegreeConstraint, mode plan.Mode, opt Options) (*ExecResult, error) {
	p, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, dcs), mode)
	if err != nil {
		return nil, err
	}
	return (&Executor{Opt: opt}).Execute(context.Background(), p, ins)
}

// pathRuleSchema builds Example 1.4's rule:
// T123(A1,A2,A3) ∨ T234(A2,A3,A4) ← R12(A1,A2), R23(A2,A3), R34(A3,A4).
func pathRule() *query.Disjunctive {
	s := query.Schema{
		NumVars:  4,
		VarNames: []string{"A1", "A2", "A3", "A4"},
		Atoms: []query.Atom{
			{Name: "R12", Vars: bitset.Of(0, 1)},
			{Name: "R23", Vars: bitset.Of(1, 2)},
			{Name: "R34", Vars: bitset.Of(2, 3)},
		},
	}
	return &query.Disjunctive{
		Schema:  s,
		Targets: []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)},
	}
}

// fourCycleQuery builds Example 1.2's full 4-cycle query.
func fourCycleQuery() *query.Conjunctive {
	s := query.Schema{
		NumVars:  4,
		VarNames: []string{"A1", "A2", "A3", "A4"},
		Atoms: []query.Atom{
			{Name: "R12", Vars: bitset.Of(0, 1)},
			{Name: "R23", Vars: bitset.Of(1, 2)},
			{Name: "R34", Vars: bitset.Of(2, 3)},
			{Name: "R41", Vars: bitset.Of(3, 0)},
		},
	}
	return &query.Conjunctive{Schema: s, Free: bitset.Full(4)}
}

func randomPathInstance(rng *rand.Rand, p *query.Disjunctive, n, dom int) *query.Instance {
	ins := query.NewInstance(&p.Schema)
	for i := range ins.Relations {
		for k := 0; k < n; k++ {
			ins.Relations[i].Insert([]relation.Value{
				relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
		}
	}
	return ins
}

// worstCasePathInstance is the Example 1.10 adversarial input restricted to
// the path body: R12 = [m]×[1], R23 = [1]×[m], R34 = [m]×[1].
func worstCasePathInstance(p *query.Disjunctive, m int) *query.Instance {
	ins := query.NewInstance(&p.Schema)
	for i := 0; i < m; i++ {
		ins.Relations[0].Insert([]relation.Value{relation.Value(i), 0})
		ins.Relations[1].Insert([]relation.Value{0, relation.Value(i)})
		ins.Relations[2].Insert([]relation.Value{relation.Value(i), 0})
	}
	return ins
}

func TestPandaPathRuleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := pathRule()
	for trial := 0; trial < 15; trial++ {
		ins := randomPathInstance(rng, p, 20+rng.Intn(30), 6)
		res, err := evalRule(p, ins, nil, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ok, err := ins.IsModel(p, res.Tables)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: PANDA output is not a model", trial)
		}
	}
}

// TestPandaExample18 runs the paper's Example 1.8 end to end: the bound is
// N^{3/2} and the computed model respects it (up to the polylog factor,
// here checked with constant 4).
func TestPandaExample18(t *testing.T) {
	p := pathRule()
	for _, m := range []int{16, 64, 256} {
		ins := worstCasePathInstance(p, m)
		res, err := evalRule(p, ins, nil, Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		ok, err := ins.IsModel(p, res.Tables)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("m=%d: not a model", m)
		}
		wantBound, _ := res.Bound.Float64()
		gotLog := math.Log2(float64(query.ModelSize(res.Tables)))
		if gotLog > wantBound+2.1 { // ≤ 4·2^bound
			t.Fatalf("m=%d: model size 2^%.2f exceeds bound 2^%.2f", m, gotLog, wantBound)
		}
		// Bound must be exactly (3/2)·log2 N.
		want := new(big.Rat).Mul(big.NewRat(3, 2), query.LogOf(int64(ins.MaxSize())))
		if res.Bound.Cmp(want) != 0 {
			t.Fatalf("m=%d: bound %v, want %v", m, res.Bound, want)
		}
	}
}

// TestDegreeSupportInvariant (Figure 8): invariant checking is on for a
// skewed instance that forces partitioning.
func TestDegreeSupportInvariant(t *testing.T) {
	p := pathRule()
	ins := query.NewInstance(&p.Schema)
	// R34 heavily skewed on A3 → decomposition buckets matter.
	for i := 0; i < 64; i++ {
		ins.Relations[0].Insert([]relation.Value{relation.Value(i), relation.Value(i % 4)})
		ins.Relations[1].Insert([]relation.Value{relation.Value(i % 4), relation.Value(i % 8)})
		ins.Relations[2].Insert([]relation.Value{0, relation.Value(i)}) // one heavy A3
	}
	for i := 0; i < 32; i++ {
		ins.Relations[2].Insert([]relation.Value{relation.Value(1 + i), relation.Value(i)})
	}
	res, err := evalRule(p, ins, nil, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ins.IsModel(p, res.Tables)
	if err != nil || !ok {
		t.Fatalf("model check: %v %v", ok, err)
	}
}

func TestPandaEmptyInput(t *testing.T) {
	p := pathRule()
	ins := query.NewInstance(&p.Schema)
	res, err := evalRule(p, ins, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if query.ModelSize(res.Tables) != 0 {
		t.Fatalf("empty input should give empty model, got %d", query.ModelSize(res.Tables))
	}
}

func TestPandaEmptyTargetTrivial(t *testing.T) {
	p := pathRule()
	p.Targets = append(p.Targets, 0) // Boolean-style target
	ins := randomPathInstance(rand.New(rand.NewSource(4)), p, 10, 4)
	res, err := evalRule(p, ins, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0] == nil || res.Tables[0].Size() != 1 {
		t.Fatal("∅ target should be the unit relation")
	}
	if res.Bound.Sign() != 0 {
		t.Fatalf("bound should be 0, got %v", res.Bound)
	}
}

// TestEvalFullTriangle verifies Corollary 7.10 on the triangle query
// against a direct join.
func TestEvalFullTriangle(t *testing.T) {
	s := query.Schema{
		NumVars:  3,
		VarNames: []string{"A", "B", "C"},
		Atoms: []query.Atom{
			{Name: "R", Vars: bitset.Of(0, 1)},
			{Name: "S", Vars: bitset.Of(1, 2)},
			{Name: "T", Vars: bitset.Of(0, 2)},
		},
	}
	q := &query.Conjunctive{Schema: s, Free: bitset.Full(3)}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		ins := query.NewInstance(&s)
		for i := range ins.Relations {
			for k := 0; k < 30; k++ {
				ins.Relations[i].Insert([]relation.Value{
					relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6))})
			}
		}
		ex, err := planAndExecute(q, ins, nil, plan.ModeFull, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ins.FullJoin()
		if !ex.Out.Equal(want) {
			t.Fatalf("trial %d: PANDA %d tuples, direct join %d", trial, ex.Out.Size(), want.Size())
		}
		// AGM exponent of the triangle is 3/2.
		wantBound := new(big.Rat).Mul(big.NewRat(3, 2), query.LogOf(int64(ins.MaxSize())))
		if ex.Bound.Cmp(wantBound) > 0 {
			t.Fatalf("trial %d: bound %v exceeds AGM %v", trial, ex.Bound, wantBound)
		}
	}
}

// TestEvalFullFourCycle verifies the full, fhtw and subw plans against the
// direct join on random 4-cycle instances.
func TestEvalFullFourCycle(t *testing.T) {
	q := fourCycleQuery()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		ins := query.NewInstance(&q.Schema)
		for i := range ins.Relations {
			for k := 0; k < 25; k++ {
				ins.Relations[i].Insert([]relation.Value{
					relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5))})
			}
		}
		want := ins.FullJoin()

		for _, mode := range []plan.Mode{plan.ModeFull, plan.ModeFhtw, plan.ModeSubw} {
			ex, err := planAndExecute(q, ins, nil, mode, Options{})
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if !ex.Out.Equal(want) {
				t.Fatalf("trial %d %v: %d vs %d tuples", trial, mode, ex.Out.Size(), want.Size())
			}
		}
	}
}

// TestEvalBooleanFourCycleWorstCase reproduces Example 1.10: on the
// adversarial instance (R12 = R34 = [m]×[1], R23 = R41 = [1]×[m]) the
// Boolean 4-cycle is true, and PANDA's intermediates stay near N^{3/2}
// while any single tree decomposition would materialize N² tuples.
func TestEvalBooleanFourCycleWorstCase(t *testing.T) {
	q := fourCycleQuery()
	q.Free = 0 // Boolean
	for _, m := range []int{8, 32, 64} {
		ins := query.NewInstance(&q.Schema)
		for i := 0; i < m; i++ {
			v := relation.Value(i)
			ins.Relations[0].Insert([]relation.Value{v, 0}) // R12(A1,A2) = [m]×[1]
			ins.Relations[1].Insert([]relation.Value{0, v}) // R23(A2,A3) = [1]×[m]
			ins.Relations[2].Insert([]relation.Value{v, 0}) // R34(A3,A4) = [m]×[1]
			ins.Relations[3].Insert([]relation.Value{v, 0}) // R41(A4,A1) = [1]×[m]: A4=0, A1=v
		}
		ex, err := planAndExecute(q, ins, nil, plan.ModeSubw, Options{})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !ex.NonEmpty {
			t.Fatalf("m=%d: 4-cycle exists but answer is false", m)
		}
		limit := 8 * int(math.Pow(float64(m), 1.5))
		if ex.Stats.MaxIntermediate > limit {
			t.Fatalf("m=%d: intermediate %d exceeds ~N^1.5 = %d", m, ex.Stats.MaxIntermediate, limit)
		}
	}
}

func TestEvalBooleanFalse(t *testing.T) {
	q := fourCycleQuery()
	q.Free = 0
	ins := query.NewInstance(&q.Schema)
	// Edges that cannot close a cycle: R41 uses values never produced.
	ins.Relations[0].Insert([]relation.Value{1, 2})
	ins.Relations[1].Insert([]relation.Value{2, 3})
	ins.Relations[2].Insert([]relation.Value{3, 4})
	ins.Relations[3].Insert([]relation.Value{9, 9})
	for _, mode := range []plan.Mode{plan.ModeSubw, plan.ModeFhtw} {
		ex, err := planAndExecute(q, ins, nil, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.NonEmpty {
			t.Fatalf("%v: no 4-cycle exists but answer is true", mode)
		}
	}
}

// TestPandaWithFDs checks Example 1.2(c): with A1 ↔ A2 FDs the full
// 4-cycle bound drops to N^{3/2}, and evaluation stays correct on an
// FD-satisfying instance.
func TestPandaWithFDs(t *testing.T) {
	q := fourCycleQuery()
	ins := query.NewInstance(&q.Schema)
	m := 32
	for i := 0; i < m; i++ {
		v := relation.Value(i)
		ins.Relations[0].Insert([]relation.Value{v, v}) // A1 = A2: satisfies both FDs
		ins.Relations[1].Insert([]relation.Value{v, relation.Value(int(v) % 5)})
		ins.Relations[2].Insert([]relation.Value{relation.Value(int(v) % 5), v})
		ins.Relations[3].Insert([]relation.Value{v, v})
	}
	dcs := []query.DegreeConstraint{
		query.FD(bitset.Of(0), bitset.Of(1), 0),
		query.FD(bitset.Of(1), bitset.Of(0), 0),
	}
	if err := ins.Check(&q.Schema, dcs); err != nil {
		t.Fatalf("instance violates FDs: %v", err)
	}
	ex, err := planAndExecute(q, ins, dcs, plan.ModeFull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ins.FullJoin()
	if !ex.Out.Equal(want) {
		t.Fatalf("FD eval: %d vs %d tuples", ex.Out.Size(), want.Size())
	}
	wantBound := new(big.Rat).Mul(big.NewRat(3, 2), query.LogOf(int64(ins.MaxSize())))
	if ex.Bound.Cmp(wantBound) > 0 {
		t.Fatalf("bound with FDs %v exceeds (3/2)logN = %v", ex.Bound, wantBound)
	}
}

// TestPandaBudget (Theorem 1.7): every intermediate stays within
// poly-log · 2^OBJ on random instances.
func TestPandaBudget(t *testing.T) {
	p := pathRule()
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		ins := randomPathInstance(rng, p, 40, 8)
		res, err := evalRule(p, ins, nil, Options{CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := res.Bound.Float64()
		if lim := 8 * math.Pow(2, b); float64(res.Stats.MaxIntermediate) > lim {
			t.Fatalf("trial %d: intermediate %d > 8·2^OBJ = %.0f", trial, res.Stats.MaxIntermediate, lim)
		}
	}
}

// TestPandaDegreeConstraintRule uses a proper degree constraint as in
// Example 1.2(b) and verifies the run stays a model.
func TestPandaDegreeConstraintRule(t *testing.T) {
	p := pathRule()
	ins := query.NewInstance(&p.Schema)
	m, d := 36, 3
	for i := 0; i < m; i++ {
		// R12: each A1 has exactly d partners → deg(A1A2|A1) ≤ d.
		for k := 0; k < d; k++ {
			ins.Relations[0].Insert([]relation.Value{relation.Value(i), relation.Value((i + k) % m)})
		}
		ins.Relations[1].Insert([]relation.Value{relation.Value(i), relation.Value(i % 7)})
		ins.Relations[2].Insert([]relation.Value{relation.Value(i % 7), relation.Value(i)})
	}
	dcs := []query.DegreeConstraint{
		query.Degree(bitset.Of(0), bitset.Of(0, 1), int64(d), 0),
	}
	if err := ins.Check(&p.Schema, dcs); err != nil {
		t.Fatal(err)
	}
	res, err := evalRule(p, ins, dcs, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ins.IsModel(p, res.Tables)
	if err != nil || !ok {
		t.Fatalf("model: %v %v", ok, err)
	}
}

func TestEvalErrors(t *testing.T) {
	p := pathRule()
	ins := query.NewInstance(&p.Schema)
	// Guard mismatch: constraint variables outside the guard atom.
	bad := []query.DegreeConstraint{query.Cardinality(bitset.Of(0, 3), 5, 0)}
	if _, err := evalRule(p, ins, bad, Options{}); err == nil {
		t.Fatal("unguardable constraint accepted")
	}
	if _, err := evalRule(&query.Disjunctive{Schema: p.Schema}, ins, nil, Options{}); err == nil {
		t.Fatal("rule without targets accepted")
	}
	q := fourCycleQuery()
	q.Free = bitset.Of(0) // not full, so no ModeFull plan exists
	if _, err := planAndExecute(q, query.NewInstance(&q.Schema), nil, plan.ModeFull, Options{}); err == nil {
		t.Fatal("non-full query accepted by ModeFull")
	}
}

// TestTraceExample18 regenerates the Figure 1 operator trace shape: the
// proof-sequence interpretation must include at least one partition or
// join, and tracing records it.
func TestTraceExample18(t *testing.T) {
	p := pathRule()
	ins := worstCasePathInstance(p, 16)
	res, err := evalRule(p, ins, nil, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Trace) == 0 {
		t.Fatal("trace is empty")
	}
	if res.Stats.Joins == 0 && res.Stats.BaseCases == 0 {
		t.Fatal("no join and no base case: nothing was computed?")
	}
}
