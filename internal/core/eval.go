package core

import (
	"math/big"

	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// This file holds the shared pieces of the data-dependent half of the
// prepare/execute split: the planning phase (LP solves, proof-sequence
// construction, decomposition choice) lives in internal/plan and produces
// a reified plan.Plan, and the Executor in executor.go interprets that
// plan over a concrete instance under a context. Here are the constraint
// completion planning needs, the ExecResult shape every mode fills, and
// the small relation and stats helpers the Executor shares.

// CompleteConstraints appends (∅, F, |R_F|) for every atom whose exact
// cardinality constraint is missing — these are always true of the instance
// and can only tighten the bound. The result is a complete constraint set
// suitable for plan.Prepare.
func CompleteConstraints(s *query.Schema, ins *query.Instance, dcs []query.DegreeConstraint) []query.DegreeConstraint {
	have := map[bitset.Set]bool{}
	for _, c := range dcs {
		if c.IsCardinality() {
			have[c.Y] = true
		}
	}
	out := append([]query.DegreeConstraint(nil), dcs...)
	for i, a := range s.Atoms {
		if !have[a.Vars] {
			out = append(out, query.Cardinality(a.Vars, int64(ins.Relations[i].Size()), i))
		}
	}
	return out
}

// unitRelation returns the nullary relation {()}.
func unitRelation() *relation.Relation {
	r := relation.New("T∅", 0)
	r.Insert([]relation.Value{})
	return r
}

// trivialResult is the Section 1.3 answer for a rule with an ∅ target.
func trivialResult() *Result {
	return &Result{
		Tables: map[bitset.Set]*relation.Relation{0: unitRelation()},
		Bound:  new(big.Rat),
		Stats:  newStats(),
	}
}

func dedupeSets(in []bitset.Set) []bitset.Set {
	seen := map[bitset.Set]bool{}
	var out []bitset.Set
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// ExecResult is the outcome of executing a reified plan over an instance.
// Every mode fills Out/NonEmpty/Width/Mode/Stats uniformly, so callers can
// assemble a mode-independent answer without reaching back into the plan.
type ExecResult struct {
	// Out is the output relation; nil for Boolean queries.
	Out *relation.Relation
	// NonEmpty answers non-emptiness in every mode.
	NonEmpty bool
	// Tables are the raw model tables of the PANDA rule (ModeFull only).
	Tables map[bitset.Set]*relation.Relation
	// Bound is the rule's polymatroid bound (ModeFull only).
	Bound *big.Rat
	// Width is the executed plan's width certificate in log₂ units.
	Width *big.Rat
	// Mode is the strategy the executed plan encoded.
	Mode plan.Mode
	// Stats accumulates the engine work across all executed rules.
	Stats *Stats
	// Timings holds per-stage wall-clock timings (per-proof-step-kind
	// engine time, rule fan-out, merge); nil unless Options.StageTimings
	// was set. Unlike Stats, timings vary run to run.
	Timings *Timings
}

// reduceWithInputs semijoins t with every input relation sharing attributes.
func reduceWithInputs(t *relation.Relation, ins *query.Instance) *relation.Relation {
	for _, r := range ins.Relations {
		if t.Attrs().Intersect(r.Attrs()) != 0 {
			t = t.Semijoin(r)
		} else if r.Size() == 0 {
			return relation.New(t.Name, t.Attrs()) // empty input empties Q
		}
	}
	return t
}

func accumulate(dst, src *Stats) {
	for k, v := range src.StepsByKind {
		dst.StepsByKind[k] += v
	}
	dst.Joins += src.Joins
	dst.Projections += src.Projections
	dst.Partitions += src.Partitions
	dst.Subproblems += src.Subproblems
	dst.Restarts += src.Restarts
	dst.BaseCases += src.BaseCases
	if src.MaxIntermediate > dst.MaxIntermediate {
		dst.MaxIntermediate = src.MaxIntermediate
	}
	dst.Trace = append(dst.Trace, src.Trace...)
}
