package panda

import (
	"errors"

	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/query"
)

// Structured sentinel errors of the DB surface. Every error returned by the
// catalog and Query paths wraps one of these where applicable, so callers
// dispatch with errors.Is instead of matching message text.
var (
	// ErrClosed reports use of a DB after Close.
	ErrClosed = errors.New("panda: database is closed")

	// ErrUnknownRelation reports a query atom or catalog operation naming
	// a relation the session does not hold.
	ErrUnknownRelation = query.ErrUnknownRelation

	// ErrRelationExists reports CreateRelation on a name already in the
	// catalog.
	ErrRelationExists = errors.New("panda: relation already exists")

	// ErrArity reports a tuple, CSV row or atom whose arity disagrees with
	// the relation's declared arity.
	ErrArity = query.ErrArity

	// ErrUnboundedLP reports that planning's polymatroid-bound LP is
	// unbounded: the constraint set does not bound every target, typically
	// because an atom lacks a cardinality constraint. The catalog-bound
	// Query path cannot hit it (instance cardinalities are always added);
	// it surfaces from RuleBound and from planning (internal/plan) with
	// incomplete constraint sets.
	ErrUnboundedLP = flow.ErrUnbounded

	// ErrNotConjunctive reports a Stmt method that needs a conjunctive
	// query applied to a disjunctive rule (e.g. an explicit WithMode).
	ErrNotConjunctive = errors.New("panda: statement is a disjunctive rule")

	// ErrPlanVersion reports an encoded plan or plan-cache snapshot whose
	// format version is not PlanFormatVersion. Cache loads skip such
	// entries; strict importers (the server's PUT /v1/plans) reject them.
	ErrPlanVersion = plan.ErrCodecVersion

	// ErrPlanDigest reports an encoded plan whose payload bytes disagree
	// with the digest recorded in its envelope.
	ErrPlanDigest = plan.ErrCodecDigest
)
