package panda

import (
	"context"
	"fmt"
	"math/big"
	"sync"

	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
)

// Stmt is a prepared statement: a parsed query or rule whose catalog
// bindings (relation names and arities) have been validated against the
// session. Running it plans through the session's plan cache — the
// first Query pays the LP solves, every later one (from this Stmt or any
// other statement with the same canonical signature) executes with zero
// planning work.
//
// A Stmt is safe for concurrent Query calls. It memoizes the bound (and
// constraint-checked) instance against the catalog's per-relation ticks, so
// repeated queries over an unchanged catalog skip the snapshot copy as
// well as the planning work — and, because execution over an identical
// read-only snapshot is deterministic, it memoizes the Result itself under
// the same key: steady-state traffic on an unchanged catalog streams a
// cached result without re-running the engine. Any mutation to a referenced
// relation moves its tick and invalidates both memos. A memoized Result is
// returned as-is, including Timings: a memo hit reports the stage timings
// of the execution that produced the result (timings are already excluded
// from the determinism guarantee, and a hit runs no stages of its own).
type Stmt struct {
	db  *DB
	src string
	res *query.ParseResult
	cfg config

	mu       sync.Mutex
	boundIns *Instance
	boundVer uint64
	memoRes  *Result
	memoVer  uint64
	memoCfg  config
	memoOK   bool
}

// Prepare parses src (the textual query language of internal/query) and
// validates every body atom against the catalog, failing early with
// ErrUnknownRelation or ErrArity. Options captured here become the
// statement's defaults; Stmt.Query may override them per call.
func (db *DB) Prepare(src string, opts ...Option) (*Stmt, error) {
	res, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if res.Conj == nil {
		if err := rejectExplicitMode(opts); err != nil {
			return nil, err
		}
	}
	cfg := db.cfg(opts)
	s := &res.Rule.Schema
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	for i, a := range s.Atoms {
		t, ok := db.catalog[a.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownRelation, a.Name)
		}
		if got, want := t.Attrs().Card(), s.Arity(i); got != want {
			return nil, fmt.Errorf("%w: relation %s has arity %d, atom %s needs %d",
				ErrArity, a.Name, got, a.Name, want)
		}
	}
	return &Stmt{db: db, src: src, res: res, cfg: cfg}, nil
}

// QueryContext binds the current catalog contents to the statement's
// schema, verifies the declared constraints against the data, and runs the
// query under ctx: cache-hit planning (via the session planner) plus
// execution for conjunctive queries, PANDA for disjunctive rules. The
// Result shape is the same in every case. A cancelled or expired context
// aborts the run promptly with ctx.Err(); the engine checks cancellation
// between proof steps and between rule executions.
func (st *Stmt) QueryContext(ctx context.Context, opts ...Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if st.res.Conj == nil {
		if err := rejectExplicitMode(opts); err != nil {
			return nil, err
		}
	}
	cfg := st.cfg
	for _, o := range opts {
		o(&cfg)
	}
	ins, ver, err := st.bind()
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if st.memoOK && st.memoVer == ver && st.memoCfg == cfg {
		res := st.memoRes
		st.mu.Unlock()
		return res, nil
	}
	st.mu.Unlock()
	var res *Result
	if st.res.Conj != nil {
		res, err = st.db.evalConjunctive(ctx, st.res.Conj, ins, st.res.Constraints, cfg)
	} else {
		res, err = st.db.evalRule(ctx, st.res.Rule, ins, st.res.Constraints, cfg)
	}
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	// Guard against a concurrent re-bind having moved the statement to a
	// newer snapshot: only memoize the result of the tick we bound.
	if st.boundVer == ver {
		st.memoRes, st.memoVer, st.memoCfg, st.memoOK = res, ver, cfg, true
	}
	st.mu.Unlock()
	return res, nil
}

// Query is QueryContext under context.Background().
func (st *Stmt) Query(opts ...Option) (*Result, error) {
	return st.QueryContext(context.Background(), opts...)
}

// bind returns the statement's schema bound to the current catalog,
// reusing the previous snapshot (already constraint-checked) while every
// relation the statement references is unchanged — mutations to unrelated
// relations no longer invalidate it (per-relation tick granularity). Bound
// instances are read-only during execution, so one snapshot may serve
// concurrent Query calls. The second return is the schema tick the
// snapshot reflects — the key the result memo pairs with.
func (st *Stmt) bind() (*Instance, uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ver, err := st.db.schemaTick(&st.res.Rule.Schema)
	if err != nil {
		return nil, 0, err
	}
	if st.boundIns != nil && st.boundVer == ver {
		return st.boundIns, ver, nil
	}
	s := &st.res.Rule.Schema
	ins, ver, err := st.db.bindInstance(s)
	if err != nil {
		return nil, 0, err
	}
	if err := ins.Check(s, st.res.Constraints); err != nil {
		return nil, 0, err
	}
	st.boundIns, st.boundVer = ins, ver
	return ins, ver, nil
}

// rejectExplicitMode fails with ErrNotConjunctive when the per-call
// options force a plan mode on a disjunctive rule. Only an explicit
// WithMode in opts counts: a session-wide WithMode default set at Open
// applies to the conjunctive queries it can apply to and is ignored for
// rules, as WithMode documents.
func rejectExplicitMode(opts []Option) error {
	var per config
	for _, o := range opts {
		o(&per)
	}
	if per.mode != ModeAuto {
		return fmt.Errorf("%w: WithMode applies to conjunctive queries", ErrNotConjunctive)
	}
	return nil
}

// PlanInfo summarizes the planning outcome of a statement: the strategy
// the planner committed to and its exact width certificate, without any
// execution work. It is the dry-run shape a query server returns from an
// explain endpoint.
type PlanInfo struct {
	// Mode is the committed strategy (ModeRule for disjunctive rules).
	Mode PlanMode
	// Width is the exact width certificate in log₂ units: the polymatroid
	// bound (ModeFull and rules), da-fhtw (ModeFhtw) or da-subw (ModeSubw).
	Width *big.Rat
	// Key is the canonical plan-cache signature; empty for disjunctive
	// rules, which are planned per rule rather than cached by signature.
	Key string
	// Digest is SignatureDigest(Key): the short hex shape identity that
	// Result.Signature and the server's per-shape telemetry key on; empty
	// for disjunctive rules.
	Digest string
}

// ExplainContext runs only the planning phase of the statement against the
// current catalog — cache-hit planning for conjunctive queries (sharing the
// session planner, so an Explain warms the cache for later queries), the
// polymatroid-bound LP for disjunctive rules — and reports the committed
// mode and width certificate without executing anything. The instance
// cardinalities the certificate depends on are snapshotted from the
// catalog, exactly as QueryContext would see them.
func (st *Stmt) ExplainContext(ctx context.Context, opts ...Option) (*PlanInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if st.res.Conj == nil {
		if err := rejectExplicitMode(opts); err != nil {
			return nil, err
		}
	}
	cfg := st.cfg
	for _, o := range opts {
		o(&cfg)
	}
	ins, _, err := st.bind()
	if err != nil {
		return nil, err
	}
	if q := st.res.Conj; q != nil {
		p, err := st.db.prepareConjunctive(ctx, q, ins, st.res.Constraints, cfg)
		if err != nil {
			return nil, err
		}
		return &PlanInfo{Mode: p.Mode, Width: p.Width, Key: p.Key, Digest: SignatureDigest(p.Key)}, nil
	}
	r := st.res.Rule
	pr, _, err := plan.PrepareRuleContext(ctx, &r.Schema, core.CompleteConstraints(&r.Schema, ins, st.res.Constraints), r.Targets)
	if err != nil {
		return nil, err
	}
	return &PlanInfo{Mode: ModeRule, Width: pr.Bound}, nil
}

// Source returns the statement's query text.
func (st *Stmt) Source() string { return st.src }

// IsRule reports whether the statement is a disjunctive datalog rule
// (multi-target head) rather than a conjunctive query.
func (st *Stmt) IsRule() bool { return st.res.Conj == nil }

// Constraints returns the degree constraints declared in the query text.
func (st *Stmt) Constraints() []Constraint { return st.res.Constraints }

// Schema returns the parsed schema (variable names, atoms).
func (st *Stmt) Schema() *Schema { return &st.res.Rule.Schema }

// Close releases the statement. It exists for database/sql symmetry; a
// Stmt holds no resources beyond its parse tree.
func (st *Stmt) Close() error { return nil }
