package panda

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"panda/internal/baseline"
	"panda/internal/plan"
)

// loadCatalog copies an instance's relations into the session catalog,
// rows in ascending-variable column order (the instance convention).
func loadCatalog(t *testing.T, db *DB, s *Schema, ins *Instance) {
	t.Helper()
	for i, a := range s.Atoms {
		if err := db.CreateRelation(a.Name, a.Vars.Card()); err != nil && !errors.Is(err, ErrRelationExists) {
			t.Fatal(err)
		}
		if err := db.Insert(a.Name, ins.Relations[i].Rows()...); err != nil {
			t.Fatal(err)
		}
	}
}

// fourCycleSrc writes the 4-cycle in ascending-variable argument order so
// catalog columns line up with the workload instance's storage.
const fourCycleSrc = `Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`
const booleanFourCycleSrc = `Q() :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`
const triangleSrc = `Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`
const pathRuleSrc = `T1(A1,A2,A3) v T2(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4).`

// TestDBParityFourCycle: the programmatic DB path and the textual catalog
// path both answer the paper's running example with the brute-force join's
// rows, and the ModeFull certificate is the polymatroid bound Bounds
// computes independently.
func TestDBParityFourCycle(t *testing.T) {
	q := FourCycleQuery()
	ins := CycleWorstCase(q, 12)
	want := ins.FullJoin().SortedRows()
	rep, err := Bounds(q, InstanceCardinalities(&q.Schema, ins))
	if err != nil {
		t.Fatal(err)
	}

	db := Open()
	defer db.Close()
	res, err := db.Eval(q, ins, nil, WithMode(ModeFull))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res.Rows()) {
		t.Fatalf("DB.Eval diverges from brute force: %d vs %d rows", len(want), res.Size())
	}
	if rep.Polymatroid.Cmp(res.Bound) != 0 || res.Width.Cmp(res.Bound) != 0 {
		t.Fatalf("bound %v (width %v), want polymatroid bound %v", res.Bound, res.Width, rep.Polymatroid)
	}
	if res.Mode != ModeFull || !res.OK {
		t.Fatalf("mode %v ok %v", res.Mode, res.OK)
	}

	loadCatalog(t, db, &q.Schema, ins)
	tres, err := db.Query(fourCycleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, tres.Rows()) {
		t.Fatalf("db.Query diverges from brute force: %d vs %d rows", len(want), tres.Size())
	}
}

// TestDBParityBooleanFourCycle: the subw DB paths on the Boolean variant
// agree with the tree-plan baseline's answer, carry the da-subw
// certificate, and stay below the quadratic intermediates the baseline
// pays.
func TestDBParityBooleanFourCycle(t *testing.T) {
	q := BooleanFourCycle()
	ins := CycleWorstCase(q, 16)
	_, ans, treeStats, err := baseline.EvalTreePlan(q, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	subw, err := DaSubw(q, InstanceCardinalities(&q.Schema, ins))
	if err != nil {
		t.Fatal(err)
	}

	db := Open()
	defer db.Close()
	res, err := db.Eval(q, ins, nil, WithMode(ModeSubw))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel != nil || res.OK != ans || res.Mode != ModeSubw {
		t.Fatalf("DB boolean diverges: rel=%v ok=%v mode=%v", res.Rel, res.OK, res.Mode)
	}
	if res.Width.Cmp(subw) != 0 {
		t.Fatalf("width %v, want da-subw %v", res.Width, subw)
	}
	if res.Stats.MaxIntermediate >= treeStats.MaxIntermediate {
		t.Fatalf("subw intermediate %d not below the tree plan's %d", res.Stats.MaxIntermediate, treeStats.MaxIntermediate)
	}
	loadCatalog(t, db, &q.Schema, ins)
	tres, err := db.Query(booleanFourCycleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if tres.Rel != nil || tres.OK != ans {
		t.Fatalf("textual boolean diverges: rel=%v ok=%v", tres.Rel, tres.OK)
	}
}

// TestDBParityTriangle: the ModeAuto and ModeFhtw DB paths and the textual
// path answer the triangle join with the brute-force join's rows; the fhtw
// plan carries the da-fhtw certificate.
func TestDBParityTriangle(t *testing.T) {
	q := TriangleQuery()
	ins := RandomInstance(8, &q.Schema, 50, 12)
	want := ins.FullJoin().SortedRows()
	fhtw, err := DaFhtw(q, InstanceCardinalities(&q.Schema, ins))
	if err != nil {
		t.Fatal(err)
	}

	db := Open()
	defer db.Close()
	res, err := db.Eval(q, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != (len(want) > 0) || !reflect.DeepEqual(want, res.Rows()) {
		t.Fatalf("DB.Eval diverges from brute force: %d vs %d rows", len(want), res.Size())
	}
	fres, err := db.Eval(q, ins, nil, WithMode(ModeFhtw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, fres.Rows()) || fres.Mode != ModeFhtw {
		t.Fatal("DB fhtw diverges from brute force")
	}
	if fres.Width.Cmp(fhtw) != 0 {
		t.Fatalf("fhtw width %v, want da-fhtw %v", fres.Width, fhtw)
	}
	loadCatalog(t, db, &q.Schema, ins)
	tres, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, tres.Rows()) {
		t.Fatal("textual triangle diverges")
	}
}

// TestDBParityPathRule: the programmatic and textual rule paths on the
// Example 1.4 disjunctive rule report RuleBound's polymatroid bound and
// return tables that form a model.
func TestDBParityPathRule(t *testing.T) {
	p := PathRule()
	ins := RandomInstance(5, &p.Schema, 30, 6)
	bound, err := RuleBound(p, InstanceCardinalities(&p.Schema, ins))
	if err != nil {
		t.Fatal(err)
	}

	db := Open()
	defer db.Close()
	res, err := db.EvalRule(p, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeRule || res.Bound.Cmp(bound) != 0 || res.Width.Cmp(bound) != 0 {
		t.Fatalf("rule result shape: mode=%v bound=%v want %v", res.Mode, res.Bound, bound)
	}
	if len(res.Tables) != len(p.Targets) {
		t.Fatalf("%d tables for %d targets", len(res.Tables), len(p.Targets))
	}
	ok, err := ins.IsModel(p, res.Tables)
	if err != nil || !ok {
		t.Fatalf("DB rule tables are not a model: %v %v", ok, err)
	}

	loadCatalog(t, db, &p.Schema, ins)
	tres, err := db.Query(pathRuleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if tres.Mode != ModeRule || tres.Bound.Cmp(bound) != 0 {
		t.Fatalf("textual rule bound %v, want %v", tres.Bound, bound)
	}
	ok, err = ins.IsModel(p, tres.Tables)
	if err != nil || !ok {
		t.Fatalf("textual rule tables are not a model: %v %v", ok, err)
	}
}

// TestDBRenamedQueryCacheHit: a query that merely renames variables is
// answered from the plan cache with zero additional LP solves.
func TestDBRenamedQueryCacheHit(t *testing.T) {
	q := TriangleQuery()
	ins := RandomInstance(11, &q.Schema, 40, 10)
	db := Open(WithPlannerCapacity(8))
	defer db.Close()
	loadCatalog(t, db, &q.Schema, ins)

	first, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	s0 := db.PlannerStats()
	if s0.Misses == 0 || s0.LPSolves == 0 {
		t.Fatalf("first query should have planned: %v", s0)
	}
	renamed, err := db.Query(`Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	s1 := db.PlannerStats()
	if s1.Hits != s0.Hits+1 || s1.Misses != s0.Misses || s1.LPSolves != s0.LPSolves || s1.PlansBuilt != s0.PlansBuilt {
		t.Fatalf("renamed query was not a free cache hit: %v then %v", s0, s1)
	}
	if !reflect.DeepEqual(first.Rows(), renamed.Rows()) {
		t.Fatal("renamed query answer diverges")
	}
}

// TestInsertAtomic: a batch containing an arity error inserts nothing — a
// partial insert would mutate the catalog without bumping its version, so
// cached statement snapshots and fresh queries would see different data.
func TestInsertAtomic(t *testing.T) {
	db := Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{1, 2}, []Value{3}); !errors.Is(err, ErrArity) {
		t.Fatalf("mixed-arity batch: got %v, want ErrArity", err)
	}
	infos, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].Size != 0 {
		t.Fatalf("failed batch left %d rows behind", infos[0].Size)
	}
}

// TestDBCatalog exercises the catalog lifecycle and its sentinel errors.
func TestDBCatalog(t *testing.T) {
	db := Open()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("R", 2); !errors.Is(err, ErrRelationExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := db.CreateRelation("bad", 0); !errors.Is(err, ErrArity) {
		t.Fatalf("zero arity: %v", err)
	}
	if err := db.Insert("R", []Value{1, 2}, []Value{1, 2}, []Value{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{1}); !errors.Is(err, ErrArity) {
		t.Fatalf("bad arity insert: %v", err)
	}
	if err := db.Insert("missing", []Value{1, 2}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("insert into missing: %v", err)
	}
	infos, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "R" || infos[0].Arity != 2 || infos[0].Size != 2 {
		t.Fatalf("catalog: %+v", infos)
	}
	if err := db.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("R"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("double drop: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("S", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := db.Query("Q(A,B) :- S(A,B)."); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
	if _, err := db.Relations(); !errors.Is(err, ErrClosed) {
		t.Fatalf("relations after close: %v", err)
	}
}

// TestDBLoadCSV: reader ingest with comments, dedupe and inferred arity;
// mismatched rows fail with ErrArity.
func TestDBLoadCSV(t *testing.T) {
	db := Open()
	defer db.Close()
	n, err := db.LoadCSV("R", strings.NewReader("1,2\n# comment\n\n 1 , 2 \n3,4\n"))
	if err != nil || n != 3 {
		t.Fatalf("LoadCSV: n=%d err=%v", n, err)
	}
	infos, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Arity != 2 || infos[0].Size != 2 { // dedupe kept 2
		t.Fatalf("after CSV: %+v", infos)
	}
	if _, err := db.LoadCSV("R", strings.NewReader("1,2,3\n")); !errors.Is(err, ErrArity) {
		t.Fatalf("ragged row: %v", err)
	}
	if _, err := db.LoadCSV("X", strings.NewReader("1,z\n")); err == nil {
		t.Fatal("non-integer accepted")
	}
	// Failed loads are atomic: no partial rows, no auto-created relation.
	if _, err := db.LoadCSV("R", strings.NewReader("9,9\n1,2,3\n")); !errors.Is(err, ErrArity) {
		t.Fatalf("ragged file: %v", err)
	}
	got, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Size != 2 {
		t.Fatalf("failed load was not atomic: %+v", got)
	}
}

// TestStmtSnapshotInvalidation: a prepared statement reuses its bound
// snapshot while the catalog is unchanged and rebinds after a mutation.
func TestStmtSnapshotInvalidation(t *testing.T) {
	db := Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("Q(A,B) :- R(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := stmt.Query()
	if err != nil || r1.Size() != 1 {
		t.Fatalf("first query: %v %v", r1, err)
	}
	r2, err := stmt.Query()
	if err != nil || r2.Size() != 1 {
		t.Fatalf("cached query: %v %v", r2, err)
	}
	if err := db.Insert("R", []Value{3, 4}); err != nil {
		t.Fatal(err)
	}
	r3, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r3.Rows(), [][]Value{{1, 2}, {3, 4}}) {
		t.Fatalf("snapshot not invalidated by insert: %v", r3.Rows())
	}
	if err := db.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("query after drop: %v", err)
	}
}

// TestDBLoadCSVDir: the data-dir convention loads one relation per file.
func TestDBLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"R.csv": "1,2\n", "S.csv": "2,3\n2,4\n"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db := Open()
	defer db.Close()
	if err := db.LoadCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("Q(A,B,C) :- R(A,B), S(B,C).")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows(), [][]Value{{1, 2, 3}, {1, 2, 4}}) {
		t.Fatalf("rows: %v", res.Rows())
	}
	if err := db.LoadCSVDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestDBSentinelErrors: the query path reports structured errors callers
// can dispatch on with errors.Is.
func TestDBSentinelErrors(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.Prepare("Q(A,B) :- R(A,B)."); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if err := db.CreateRelation("R", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare("Q(A,B) :- R(A,B)."); !errors.Is(err, ErrArity) {
		t.Fatalf("arity mismatch: %v", err)
	}
	if err := db.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare("T1(A) v T2(B) :- R(A,B).", WithMode(ModeSubw)); !errors.Is(err, ErrNotConjunctive) {
		t.Fatalf("mode on rule: %v", err)
	}
	if _, err := db.Query("Q(A) :- R(A,B).", WithMode(ModeFull)); err == nil {
		t.Fatal("ModeFull accepted a projection query")
	}
	// Planning without cardinality constraints leaves the LP unbounded.
	if _, err := plan.NewPlanner(4).Prepare(TriangleQuery(), nil, ModeAuto); !errors.Is(err, ErrUnboundedLP) {
		t.Fatalf("unbounded LP: %v", err)
	}
	q := PathRule()
	if _, err := RuleBound(q, []Constraint{Cardinality(Vars(0, 1), 8, 0)}); !errors.Is(err, ErrUnboundedLP) {
		t.Fatalf("unbounded rule bound: %v", err)
	}
}

// TestDBArgumentOrderBinding: atom argument order is honored when binding
// catalog rows — R(B,A) reads stored columns as (B, A).
func TestDBArgumentOrderBinding(t *testing.T) {
	db := Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("Q(A,B) :- R(B,A).")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows(), [][]Value{{2, 1}}) {
		t.Fatalf("argument order ignored: %v", res.Rows())
	}
	// A repeated variable is the diagonal selection.
	if err := db.Insert("R", []Value{5, 5}); err != nil {
		t.Fatal(err)
	}
	diag, err := db.Query("Q(A) :- R(A,A).")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diag.Rows(), [][]Value{{5}}) {
		t.Fatalf("diagonal selection: %v", diag.Rows())
	}
}

// TestDBConcurrent: concurrent Query, Prepare+Query and Insert traffic on
// one session is race-free (run under -race in CI) and stays correct. The
// writes go to a relation the query does not reference: mutating a
// referenced relation changes its instance-derived cardinality constraint,
// which is part of the plan-cache key, so those queries would replan (by
// design) and the hit-count assertion would depend on scheduling.
func TestDBConcurrent(t *testing.T) {
	q := TriangleQuery()
	ins := RandomInstance(21, &q.Schema, 30, 8)
	db := Open()
	defer db.Close()
	loadCatalog(t, db, &q.Schema, ins)
	if err := db.CreateRelation("W", 2); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 4; i++ {
				if g%2 == 0 {
					if _, err := db.Query(triangleSrc); err != nil {
						done <- err
						return
					}
				} else {
					if _, err := stmt.Query(); err != nil {
						done <- err
						return
					}
				}
				if err := db.Insert("W", []Value{Value(100 + g), Value(200 + i)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlannerStats()
	// The 16 db.Query calls each consult the planner (fresh Stmt per call);
	// the prepared statement consults it between 1 and 16 times — once its
	// result memo warms, repeated stmt.Query calls over the unchanged
	// referenced relations skip planning (and execution) entirely, and how
	// many calls race ahead of the first memo store depends on scheduling.
	if st.Misses != 1 {
		t.Fatalf("32 queries over an unchanged catalog should plan once: %v", st)
	}
	if st.Hits < 16 || st.Hits > 31 {
		t.Fatalf("expected 16–31 plan-cache hits (db.Query path + pre-memo stmt calls): %v", st)
	}
}
