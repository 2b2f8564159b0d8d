package panda

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"
	"math/big"

	"panda/internal/core"
	"panda/internal/plan"
)

// ModeRule marks a Result produced by a disjunctive datalog rule rather
// than one of the conjunctive plan modes.
const ModeRule = plan.ModeRule

// Result is the unified outcome of every DB query path — full, Boolean and
// projection conjunctive queries and disjunctive datalog rules all produce
// one shape.
type Result struct {
	// Rel is the output relation over the query's free variables; nil for
	// Boolean queries and for disjunctive rules (see Tables).
	Rel *Relation
	// Columns names Rel's columns — the query's free variables in the
	// ascending variable order Rows uses; nil when the result has no
	// output relation. It is the stable header a serving layer (JSON, CSV)
	// pairs with Rows.
	Columns []string
	// OK answers non-emptiness in every case: the Boolean answer, |Rel| >
	// 0, or — for a rule — whether any target table is non-empty.
	OK bool
	// Width is the width certificate of the executed strategy in log₂
	// units: the polymatroid bound (ModeFull and rules), da-fhtw
	// (ModeFhtw) or da-subw (ModeSubw).
	Width *big.Rat
	// Mode is the strategy that produced the result (ModeRule for
	// disjunctive rules).
	Mode PlanMode
	// Tables holds the per-target model tables of the underlying PANDA
	// rule: every target for disjunctive rules, the raw (pre-semijoin)
	// full table for ModeFull, nil otherwise. Reading a table through
	// Rows/SortedRows materializes a decoded copy per call; iterate with
	// Relation.All / AllSorted to stream instead.
	Tables map[Set]*Relation
	// Bound is the polymatroid bound of the executed rule in log₂ units
	// (ModeFull and rules), nil otherwise.
	Bound *big.Rat
	// Stats accumulates the engine work across all executed rules.
	Stats *Stats
	// Signature is the short hex digest of the plan's canonical,
	// renaming-invariant signature — the query's *shape* identity: two
	// queries that differ only by variable renaming share one signature,
	// and per-shape telemetry (pandad's shape table, slow-query log) keys
	// on it. Empty for disjunctive rules, which are planned per rule
	// rather than cached by signature.
	Signature string
	// Timings attributes wall-clock time to the stages of this execution
	// (prepare-wait, per-proof-step-kind engine time, rule fan-out,
	// merge); nil unless WithStageTimings was set. Unlike Stats, timings
	// vary run to run and are excluded from the deterministic-merge
	// guarantee.
	Timings *Timings
}

// Timings attributes wall-clock time to the stages of one execution; see
// WithStageTimings.
type Timings = core.Timings

// SignatureDigest condenses a canonical plan-signature key (PlanInfo.Key,
// plan cache keys) into the short hex digest used everywhere a shape is
// named: Result.Signature, the /v1/shapes table, slow-query log lines. An
// empty key (disjunctive rules) digests to "".
func SignatureDigest(key string) string {
	if key == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:6])
}

// Rows returns the output tuples in deterministic sorted order; nil when
// the result has no output relation. Each call decodes and materializes a
// fresh copy of the whole row set (as does Tables via Relation.Rows) —
// streaming consumers should prefer Iter.
func (r *Result) Rows() [][]Value {
	if r.Rel == nil {
		return nil
	}
	return r.Rel.SortedRows()
}

// Iter iterates the output tuples in the same deterministic sorted order as
// Rows without materializing them: rows decode out of the columnar storage
// into one reused buffer, so the yielded slice is valid only for the body
// of the loop — copy it if it must be retained. The sequence is empty when
// the result has no output relation.
func (r *Result) Iter() iter.Seq[[]Value] {
	if r.Rel == nil {
		return func(func([]Value) bool) {}
	}
	return r.Rel.AllSorted()
}

// Size returns |Rel|, or 0 when the result has no output relation.
func (r *Result) Size() int {
	if r.Rel == nil {
		return 0
	}
	return r.Rel.Size()
}

func (r *Result) String() string {
	switch {
	case r.Mode == ModeRule:
		return fmt.Sprintf("rule result: %d tables, bound 2^%s", len(r.Tables), r.Bound.FloatString(4))
	case r.Rel == nil:
		return fmt.Sprintf("boolean result: %v (%s)", r.OK, r.Mode)
	default:
		return fmt.Sprintf("%d tuples (%s)", r.Rel.Size(), r.Mode)
	}
}
