package panda

import (
	"panda/internal/flow"
	"panda/internal/plan"
)

// The data-independent planning phase (exact LP solves, proof-sequence
// construction, tree-decomposition choice) lives in internal/plan; a DB's
// planner caches its reified plans keyed by a canonical, renaming-invariant
// signature. This file re-exports the plan vocabulary the facade surfaces.

// PlanMode selects the evaluation strategy a plan encodes.
type PlanMode = plan.Mode

// Plan modes.
const (
	ModeAuto = plan.ModeAuto // cost-based: ModeFull for full queries; else the smaller of the fhtw/subw certificates
	ModeFull = plan.ModeFull // PANDA + semijoin reduction (Corollary 7.10)
	ModeFhtw = plan.ModeFhtw // fractional-hypertree-width plan (Corollary 7.11)
	ModeSubw = plan.ModeSubw // submodular-width plan (Theorem 1.9)
)

// PlannerStats snapshots a session planner's cache and planning counters.
type PlannerStats = plan.Stats

// PlanCacheLoadStats reports what a plan-cache import did: entries loaded,
// entries skipped, and the first rejection reason (dispatch on it with
// errors.Is against ErrPlanVersion / ErrPlanDigest).
type PlanCacheLoadStats = plan.CacheLoadStats

// PlanFormatVersion is the wire-format version of encoded plans and plan-
// cache snapshots; decoders reject other versions.
const PlanFormatVersion = plan.FormatVersion

// ProofStep is one weighted Shannon-flow proof step (Definition 5.7).
type ProofStep = flow.Step

// Proof-step kinds (rules 13–16 of the paper).
const (
	StepSubmodularity = flow.Submodularity
	StepMonotonicity  = flow.Monotonicity
	StepComposition   = flow.Composition
	StepDecomposition = flow.Decomposition
)

// projectFree projects an execution output onto the query's free variables
// when it is a proper projection (non-full, non-Boolean); full and Boolean
// results pass through. Shared by the query and watch paths so the two
// cannot diverge.
func projectFree(out *Relation, free Set) *Relation {
	if out != nil && free != 0 && free != out.Attrs() {
		return out.Project(free)
	}
	return out
}

// DefaultCardinalities appends |R| ≤ n for every atom lacking a declared
// cardinality constraint, so data-independent planning (panda plan, Bounds)
// has a bounded LP even before any data exists. It returns the completed
// set and the names of the atoms the default was assumed for.
func DefaultCardinalities(s *Schema, dcs []Constraint, n int64) ([]Constraint, []string) {
	have := map[Set]bool{}
	for _, c := range dcs {
		if c.IsCardinality() {
			have[c.Y] = true
		}
	}
	out := append([]Constraint(nil), dcs...)
	var assumed []string
	for i, a := range s.Atoms {
		if !have[a.Vars] {
			out = append(out, Cardinality(a.Vars, n, i))
			assumed = append(assumed, a.Name)
		}
	}
	return out, assumed
}
