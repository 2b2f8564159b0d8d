// Package plan reifies the data-independent half of PANDA as first-class,
// reusable query plans. The paper's evaluation algorithms (Corollaries
// 7.10/7.11/7.13, Theorem 1.9) factor into a planning phase — exact-rational
// LP solves (Lemma 5.2), Shannon-flow proof-sequence construction
// (Theorem 5.9), and tree-decomposition enumeration — and an execution phase
// that interprets the proof sequences over a concrete instance. A Plan
// captures everything the planning phase produces: the chosen tree
// decomposition(s), per-bag fractional edge covers, the PANDA proof sequence
// of every disjunctive rule, and a width certificate (the da-fhtw or da-subw
// value as an exact rational). internal/core.Executor runs the data-dependent
// phase against a Plan; a Planner caches Plans in a concurrency-safe LRU
// keyed by a canonical signature of (query shape, free variables, constraint
// set), so repeated traffic pays the (often exponential-in-query-size)
// planning cost once.
//
// This package is deliberately data-independent: it never touches
// internal/relation, so internal/core can layer execution on top of it
// without an import cycle.
package plan

import (
	"context"
	"fmt"
	"math/big"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/lp"
	"panda/internal/query"
)

// Mode selects which of the paper's evaluation strategies a Plan encodes.
type Mode int

const (
	// ModeAuto picks ModeFull for full queries; for every other query the
	// planner builds both the fhtw and subw candidates and keeps the one
	// whose exact width certificate is smaller (ties go to ModeFhtw, whose
	// single-decomposition execution does strictly less work).
	ModeAuto Mode = iota
	// ModeFull is PANDA + semijoin reduction (Corollary 7.10); full
	// queries only.
	ModeFull
	// ModeFhtw is the degree-aware fractional-hypertree-width plan
	// (Corollary 7.11): one disjunctive rule per bag of the best tree
	// decomposition.
	ModeFhtw
	// ModeSubw is the degree-aware submodular-width plan (Theorem 1.9 /
	// Corollary 7.13): one disjunctive rule per inclusion-minimal bag
	// transversal.
	ModeSubw
)

// ModeRule marks results produced by a disjunctive datalog rule rather
// than a conjunctive plan; it is never a valid planning mode.
const ModeRule Mode = -1

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeFull:
		return "full"
	case ModeFhtw:
		return "fhtw"
	case ModeRule:
		return "rule"
	default:
		return "subw"
	}
}

// PreparedRule is the reified planning output for one disjunctive datalog
// rule: the polymatroid bound, the λ/δ pair of Lemma 5.2, and the proof
// sequence of Theorem 5.9. Execution clones Lambda and Delta before
// mutating, so a PreparedRule may be shared by concurrent executions.
type PreparedRule struct {
	// Targets are the rule heads ⋁ T_B.
	Targets []bitset.Set
	// Trivial marks a rule with an ∅ target, answered by the unit table
	// with no planning at all (Section 1.3).
	Trivial bool
	// Bound is LogSizeBound_{Γn∩HDC}(P) in log₂ units.
	Bound *big.Rat
	// Lambda, Delta are the scaled witness vectors (‖λ‖₁ = 1).
	Lambda, Delta flow.Vec
	// Seq is the proof sequence interpreted by the execution engine.
	Seq flow.ProofSequence
}

// Cover is an exact fractional edge cover of one bag: the classic ρ*(H_B)
// LP (Eq. 33) restricted to the bag, with per-atom weights.
type Cover struct {
	Bag     bitset.Set
	Weights []*big.Rat // aligned with the schema's atoms
	Value   *big.Rat   // ρ*(H_Bag)
}

// Plan is a fully reified query plan: every LP solve, proof sequence and
// decomposition choice made ahead of data. Plans are immutable after
// Prepare; executions must not mutate them.
type Plan struct {
	Mode Mode
	// Key is the canonical signature the plan cache indexes by; set only
	// on plans that went through a Planner (direct Prepare skips
	// canonicalization — the one-shot eval paths never need it).
	Key string
	// Schema and Free identify the query in the caller's variable space.
	Schema query.Schema
	Free   bitset.Set
	// Cons is the complete, validated constraint set (every atom carries a
	// cardinality constraint; every constraint is guarded).
	Cons []query.DegreeConstraint

	// Bags is the distinct bag universe across all tree decompositions;
	// TDs/TDBags index into it. Nil for ModeFull.
	Bags   []bitset.Set
	TDs    []*hypergraph.Decomposition
	TDBags [][]int
	// Chosen is the index of the selected decomposition (ModeFhtw), −1
	// otherwise.
	Chosen int
	// Transversals are the inclusion-minimal bag transversals driving the
	// ModeSubw rules, as indices into Bags.
	Transversals [][]int

	// Rules holds one prepared rule per execution unit: the single full
	// rule (ModeFull), one per chosen-decomposition bag (ModeFhtw), or one
	// per transversal (ModeSubw).
	Rules []*PreparedRule
	// Width is the plan's width certificate in log₂ units: the polymatroid
	// bound (ModeFull), the worst-bag bound of the chosen decomposition
	// (da-fhtw, ModeFhtw), or the worst rule bound (da-subw, ModeSubw).
	Width *big.Rat
}

// BuildStats reports the planning work a Prepare call performed; the plan
// cache uses it to prove that hits skip the LP entirely.
type BuildStats struct {
	LPSolves   int // exact simplex solves (maximin bounds + cover LPs)
	ProofSteps int // total proof-sequence length across rules
}

// ResolveMode maps ModeAuto to ModeFull for full queries. For non-full
// queries ModeAuto is returned unchanged: the concrete fhtw-vs-subw choice
// is cost-based, made inside Prepare from the width certificates, and the
// cache keys such queries under ModeAuto so the comparison runs once per
// signature.
func ResolveMode(q *query.Conjunctive, mode Mode) Mode {
	if mode == ModeAuto && q.IsFull() {
		return ModeFull
	}
	return mode
}

// validateSchema rejects variables outside the bitset universe before any
// bitmask arithmetic can panic on them.
func validateSchema(s *query.Schema) error {
	if s.NumVars < 0 || s.NumVars > 32 {
		return fmt.Errorf("plan: %d variables exceed the 32-bit set universe", s.NumVars)
	}
	full := bitset.Full(s.NumVars)
	for _, a := range s.Atoms {
		if !a.Vars.SubsetOf(full) {
			return fmt.Errorf("plan: atom %s uses variables %v outside the universe [%d]", a.Name, a.Vars, s.NumVars)
		}
	}
	return nil
}

// validateQuery checks the schema, free set and constraint guards.
func validateQuery(q *query.Conjunctive, cons []query.DegreeConstraint) error {
	if err := validateSchema(&q.Schema); err != nil {
		return err
	}
	if !q.Free.SubsetOf(bitset.Full(q.NumVars)) {
		return fmt.Errorf("plan: free set %v outside the universe [%d]", q.Free, q.NumVars)
	}
	return checkGuards(&q.Schema, cons)
}

// checkGuards validates every constraint's shape and guard against the
// schema (the schema-level equivalent of core's instance-side checks).
func checkGuards(s *query.Schema, cons []query.DegreeConstraint) error {
	for _, c := range cons {
		if err := c.Validate(s.NumVars); err != nil {
			return err
		}
		if c.Guard < 0 || c.Guard >= len(s.Atoms) {
			return fmt.Errorf("plan: constraint on %v lacks a guard atom", c.Y)
		}
		if !c.Y.SubsetOf(s.Atoms[c.Guard].Vars) {
			return fmt.Errorf("plan: atom %s cannot guard constraint on %v",
				s.Atoms[c.Guard].Name, c.Y)
		}
	}
	return nil
}

func toFlowDCs(s *query.Schema, dcs []query.DegreeConstraint) ([]flow.DC, error) {
	out := make([]flow.DC, len(dcs))
	for i, c := range dcs {
		if err := c.Validate(s.NumVars); err != nil {
			return nil, err
		}
		out[i] = flow.DC{X: c.X, Y: c.Y, LogN: c.LogN}
	}
	return out, nil
}

// PrepareRule runs the planning phase for a single disjunctive rule:
// polymatroid-bound LP, witness extraction and proof-sequence construction.
// The constraint set must be complete (guarded, with cardinalities); guards
// are validated here so a prepared rule is always executable.
func PrepareRule(s *query.Schema, cons []query.DegreeConstraint, targets []bitset.Set) (*PreparedRule, *BuildStats, error) {
	return PrepareRuleContext(context.Background(), s, cons, targets)
}

// PrepareRuleContext is PrepareRule honoring ctx: cancellation is checked
// before the LP solve, so an expired context aborts planning promptly.
func PrepareRuleContext(ctx context.Context, s *query.Schema, cons []query.DegreeConstraint, targets []bitset.Set) (*PreparedRule, *BuildStats, error) {
	bs := &BuildStats{}
	if err := validateSchema(s); err != nil {
		return nil, bs, err
	}
	full := bitset.Full(s.NumVars)
	for _, b := range targets {
		if !b.SubsetOf(full) {
			return nil, bs, fmt.Errorf("plan: target %v outside the universe [%d]", b, s.NumVars)
		}
	}
	if err := checkGuards(s, cons); err != nil {
		return nil, bs, err
	}
	pr, err := prepareRule(ctx, s, cons, targets, bs)
	return pr, bs, err
}

func prepareRule(ctx context.Context, s *query.Schema, cons []query.DegreeConstraint, targets []bitset.Set, bs *BuildStats) (*PreparedRule, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("plan: rule has no targets")
	}
	for _, b := range targets {
		if b == 0 {
			return &PreparedRule{Targets: targets, Trivial: true, Bound: new(big.Rat)}, nil
		}
	}
	fdcs, err := toFlowDCs(s, cons)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bs.LPSolves++
	res, err := flow.MaximinBound(s.NumVars, fdcs, targets)
	if err != nil {
		return nil, err
	}
	seq, err := flow.ConstructProof(res.Lambda, res.Delta, res.Witness)
	if err != nil {
		return nil, err
	}
	bs.ProofSteps += len(seq)
	return &PreparedRule{
		Targets: targets,
		Bound:   res.Bound,
		Lambda:  res.Lambda,
		Delta:   res.Delta,
		Seq:     seq,
	}, nil
}

// fractionalCover solves ρ*(H_B) exactly, returning the per-edge weights.
func fractionalCover(h *hypergraph.Hypergraph, b bitset.Set, bs *BuildStats) (Cover, error) {
	prob := lp.NewProblem(len(h.Edges), false)
	one := big.NewRat(1, 1)
	for j := range h.Edges {
		prob.SetObj(j, one)
	}
	for _, v := range b.Vars() {
		row := map[int]*big.Rat{}
		for j, e := range h.Edges {
			if e.Contains(v) {
				row[j] = one
			}
		}
		if len(row) == 0 {
			return Cover{}, fmt.Errorf("plan: bag vertex %d uncovered by any atom", v)
		}
		prob.AddConstraint(row, lp.Ge, one)
	}
	bs.LPSolves++
	sol, err := prob.Solve()
	if err != nil {
		return Cover{}, err
	}
	if sol.Status != lp.Optimal {
		return Cover{}, fmt.Errorf("plan: cover LP %v", sol.Status)
	}
	return Cover{Bag: b, Weights: sol.X, Value: sol.Objective}, nil
}

// Prepare runs the complete data-independent planning phase for q under the
// given constraint set and returns the reified plan. The constraint set must
// be complete: every constraint guarded by an atom and (for the LP to be
// bounded) every atom carrying a cardinality constraint —
// core.CompleteConstraints derives the latter from an instance.
//
// No instance is consulted: everything here can be cached and amortized
// across executions.
func Prepare(q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, *BuildStats, error) {
	return PrepareContext(context.Background(), q, cons, mode)
}

// PrepareContext is Prepare honoring ctx: cancellation is checked between
// the per-bag and per-transversal LP solves, so an expired context aborts a
// long planning phase between solves rather than after the whole batch.
func PrepareContext(ctx context.Context, q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, *BuildStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mode = ResolveMode(q, mode)
	bs := &BuildStats{}
	if err := ctx.Err(); err != nil {
		return nil, bs, err
	}
	if err := validateQuery(q, cons); err != nil {
		return nil, bs, err
	}
	p := &Plan{
		Mode:   mode,
		Schema: copySchema(&q.Schema),
		Free:   q.Free,
		Cons:   append([]query.DegreeConstraint(nil), cons...),
		Chosen: -1,
	}
	h := q.Hypergraph()
	switch mode {
	case ModeFull:
		if !q.IsFull() {
			return nil, bs, fmt.Errorf("plan: ModeFull needs a full query")
		}
		full := bitset.Full(q.NumVars)
		pr, err := prepareRule(ctx, &p.Schema, cons, []bitset.Set{full}, bs)
		if err != nil {
			return nil, bs, err
		}
		p.Rules = []*PreparedRule{pr}
		p.Width = pr.Bound
		return p, bs, nil
	case ModeFhtw, ModeSubw, ModeAuto:
		// fall through to the tree-decomposition machinery below; ModeAuto
		// builds both candidates and keeps the smaller certificate.
	default:
		return nil, bs, fmt.Errorf("plan: unknown mode %d", int(mode))
	}

	if !h.CoversAll() {
		return nil, bs, fmt.Errorf("plan: query body does not cover all variables")
	}
	tds, err := h.AllDecompositions()
	if err != nil {
		return nil, bs, err
	}
	p.TDs = tds
	bagIdx := map[bitset.Set]int{}
	for _, d := range tds {
		var idxs []int
		for _, b := range d.Bags {
			i, ok := bagIdx[b]
			if !ok {
				i = len(p.Bags)
				bagIdx[b] = i
				p.Bags = append(p.Bags, b)
			}
			idxs = append(idxs, i)
		}
		p.TDBags = append(p.TDBags, idxs)
	}
	fdcs, err := toFlowDCs(&q.Schema, cons)
	if err != nil {
		return nil, bs, err
	}

	// fhtw candidate: one LP per distinct bag; the results double as the
	// rule plans of the chosen decomposition (the simplex is deterministic,
	// so the reuse is behavior-preserving). Proof sequences are constructed
	// only if the candidate is committed.
	var bagRes []*flow.MaximinResult
	fhtwChosen := -1
	var fhtwWidth *big.Rat
	if mode == ModeFhtw || mode == ModeAuto {
		bagRes = make([]*flow.MaximinResult, len(p.Bags))
		for i, b := range p.Bags {
			if err := ctx.Err(); err != nil {
				return nil, bs, err
			}
			bs.LPSolves++
			r, err := flow.MaximinBound(q.NumVars, fdcs, []bitset.Set{b})
			if err != nil {
				return nil, bs, err
			}
			bagRes[i] = r
		}
		for ti := range p.TDs {
			worst := new(big.Rat)
			for _, bi := range p.TDBags[ti] {
				if bagRes[bi].Bound.Cmp(worst) > 0 {
					worst = bagRes[bi].Bound
				}
			}
			if fhtwChosen == -1 || worst.Cmp(fhtwWidth) < 0 {
				fhtwChosen, fhtwWidth = ti, worst
			}
		}
	}

	// subw candidate: one rule per inclusion-minimal bag transversal
	// (Lemma 7.12); the width certificate is the worst rule bound, which is
	// exactly the degree-aware submodular width. Only the bound LPs run
	// here — proof sequences, like the fhtw candidate's, are constructed
	// only if the candidate is committed.
	var trs [][]int
	var trTargets [][]bitset.Set
	var trRes []*flow.MaximinResult
	var subwWidth *big.Rat
	if mode == ModeSubw || mode == ModeAuto {
		trs, err = hypergraph.MinimalTransversals(p.Bags, p.TDBags)
		if err != nil {
			return nil, bs, err
		}
		subwWidth = new(big.Rat)
		for _, tr := range trs {
			if err := ctx.Err(); err != nil {
				return nil, bs, err
			}
			targets := make([]bitset.Set, len(tr))
			for i, bi := range tr {
				targets[i] = p.Bags[bi]
			}
			bs.LPSolves++
			r, err := flow.MaximinBound(q.NumVars, fdcs, targets)
			if err != nil {
				return nil, bs, err
			}
			trTargets = append(trTargets, targets)
			trRes = append(trRes, r)
			if r.Bound.Cmp(subwWidth) > 0 {
				subwWidth = r.Bound
			}
		}
	}

	if mode == ModeAuto {
		// Cost-based choice from the exact certificates: da-subw ≤ da-fhtw
		// always, so subw wins exactly when it is strictly smaller; on ties
		// the fhtw plan executes strictly less work (one decomposition, one
		// rule per bag, a single Yannakakis pass).
		if subwWidth.Cmp(fhtwWidth) < 0 {
			mode = ModeSubw
		} else {
			mode = ModeFhtw
		}
		p.Mode = mode
	}

	if mode == ModeSubw {
		p.Transversals = trs
		p.Width = subwWidth
		for ti, r := range trRes {
			seq, err := flow.ConstructProof(r.Lambda, r.Delta, r.Witness)
			if err != nil {
				return nil, bs, err
			}
			bs.ProofSteps += len(seq)
			p.Rules = append(p.Rules, &PreparedRule{
				Targets: trTargets[ti],
				Bound:   r.Bound,
				Lambda:  r.Lambda,
				Delta:   r.Delta,
				Seq:     seq,
			})
		}
		return p, bs, nil
	}

	p.Chosen = fhtwChosen
	p.Width = fhtwWidth
	td := p.TDs[fhtwChosen]
	for i, b := range td.Bags {
		r := bagRes[p.TDBags[fhtwChosen][i]]
		seq, err := flow.ConstructProof(r.Lambda, r.Delta, r.Witness)
		if err != nil {
			return nil, bs, err
		}
		bs.ProofSteps += len(seq)
		p.Rules = append(p.Rules, &PreparedRule{
			Targets: []bitset.Set{b},
			Bound:   r.Bound,
			Lambda:  r.Lambda,
			Delta:   r.Delta,
			Seq:     seq,
		})
	}
	return p, bs, nil
}

// Covers computes fractional edge covers for every bag the plan touches —
// the chosen decomposition's bags (ModeFhtw), the whole bag universe
// (ModeSubw), or the full variable set (ModeFull). Execution never needs
// them, so they are computed on demand (one small LP per bag) rather than
// in Prepare; the result is not memoized.
func (p *Plan) Covers() ([]Cover, error) {
	h := p.Schema.Hypergraph()
	var bags []bitset.Set
	switch {
	case p.Mode == ModeFull:
		bags = []bitset.Set{bitset.Full(p.Schema.NumVars)}
	case p.Chosen >= 0:
		bags = p.TDs[p.Chosen].Bags
	default:
		bags = p.Bags
	}
	bs := &BuildStats{}
	out := make([]Cover, 0, len(bags))
	for _, b := range bags {
		cov, err := fractionalCover(h, b, bs)
		if err != nil {
			return nil, err
		}
		out = append(out, cov)
	}
	return out, nil
}

func copySchema(s *query.Schema) query.Schema {
	return query.Schema{
		NumVars:  s.NumVars,
		VarNames: append([]string(nil), s.VarNames...),
		Atoms:    append([]query.Atom(nil), s.Atoms...),
	}
}
