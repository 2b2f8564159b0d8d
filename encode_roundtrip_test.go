package panda

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"panda/internal/bitset"
	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/workload"
)

// The round-trip property over the golden fixtures: a plan that crossed the
// wire must execute byte-identically to the freshly prepared one — same
// rows, same width certificate, same committed mode, same engine stats
// (trace included). This is the codec's whole contract: shipping a plan to
// a replica or a restarted process changes nothing about what it computes.

// conjFixtures are the conjunctive golden fixtures of the db/e2e suites.
func conjFixtures() []struct {
	name string
	q    *query.Conjunctive
	ins  *query.Instance
} {
	triangle := workload.TriangleQuery()
	fourCycle := workload.FourCycleQuery()
	boolCycle := workload.BooleanFourCycle()
	return []struct {
		name string
		q    *query.Conjunctive
		ins  *query.Instance
	}{
		{"triangle", triangle, RandomInstance(3, &triangle.Schema, 120, 24)},
		{"four-cycle", fourCycle, workload.AppendixABoundA(fourCycle, 16)},
		{"boolean-four-cycle", boolCycle, workload.CycleWorstCase(boolCycle, 32)},
	}
}

func TestPlanRoundTripExecutionParity(t *testing.T) {
	ex := &core.Executor{Opt: core.Options{Trace: true}}
	for _, fx := range conjFixtures() {
		for _, mode := range []PlanMode{ModeAuto, ModeFhtw, ModeSubw} {
			if mode == ModeFhtw && fx.q.IsBoolean() {
				// Covered by auto; keep the matrix small.
				continue
			}
			cons := core.CompleteConstraints(&fx.q.Schema, fx.ins, nil)
			p, _, err := plan.Prepare(fx.q, cons, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", fx.name, mode, err)
			}
			var buf bytes.Buffer
			if err := plan.EncodePlan(&buf, p); err != nil {
				t.Fatalf("%s/%v: encode: %v", fx.name, mode, err)
			}
			decoded, err := plan.DecodePlan(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%v: decode: %v", fx.name, mode, err)
			}

			want, err := ex.Execute(context.Background(), p, fx.ins)
			if err != nil {
				t.Fatalf("%s/%v: execute fresh: %v", fx.name, mode, err)
			}
			got, err := ex.Execute(context.Background(), decoded, fx.ins)
			if err != nil {
				t.Fatalf("%s/%v: execute decoded: %v", fx.name, mode, err)
			}
			if got.Mode != want.Mode {
				t.Fatalf("%s/%v: mode %v ≠ %v", fx.name, mode, got.Mode, want.Mode)
			}
			if got.Width.Cmp(want.Width) != 0 {
				t.Fatalf("%s/%v: width %v ≠ %v", fx.name, mode, got.Width, want.Width)
			}
			if got.NonEmpty != want.NonEmpty {
				t.Fatalf("%s/%v: ok %v ≠ %v", fx.name, mode, got.NonEmpty, want.NonEmpty)
			}
			switch {
			case (got.Out == nil) != (want.Out == nil):
				t.Fatalf("%s/%v: one execution produced rows, the other none", fx.name, mode)
			case got.Out != nil:
				if !reflect.DeepEqual(got.Out.SortedRows(), want.Out.SortedRows()) {
					t.Fatalf("%s/%v: rows differ after round trip", fx.name, mode)
				}
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("%s/%v: stats differ after round trip:\n%+v\n%+v", fx.name, mode, got.Stats, want.Stats)
			}
		}
	}
}

// TestRuleRoundTripExecutionParity covers the disjunctive fixtures: the
// path rule of Example 1.4 and a two-target rule over the triangle body.
func TestRuleRoundTripExecutionParity(t *testing.T) {
	pathRule := workload.PathRule()
	triangle := workload.TriangleQuery()
	disjunctive := &query.Disjunctive{
		Schema:  triangle.Schema,
		Targets: []bitset.Set{bitset.Of(0, 1), bitset.Of(1, 2)},
	}
	fixtures := []struct {
		name string
		p    *query.Disjunctive
		ins  *query.Instance
	}{
		{"path-rule", pathRule, workload.PathWorstCase(pathRule, 64)},
		{"disjunctive", disjunctive, RandomInstance(9, &triangle.Schema, 80, 16)},
	}
	ex := &core.Executor{Opt: core.Options{Trace: true}}
	for _, fx := range fixtures {
		cons := core.CompleteConstraints(&fx.p.Schema, fx.ins, nil)
		pr, _, err := plan.PrepareRule(&fx.p.Schema, cons, fx.p.Targets)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		var buf bytes.Buffer
		if err := plan.EncodeRule(&buf, pr); err != nil {
			t.Fatalf("%s: encode: %v", fx.name, err)
		}
		decoded, err := plan.DecodeRule(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", fx.name, err)
		}
		want, err := ex.ExecuteRule(context.Background(), &fx.p.Schema, pr, cons, fx.ins)
		if err != nil {
			t.Fatalf("%s: execute fresh: %v", fx.name, err)
		}
		got, err := ex.ExecuteRule(context.Background(), &fx.p.Schema, decoded, cons, fx.ins)
		if err != nil {
			t.Fatalf("%s: execute decoded: %v", fx.name, err)
		}
		if got.Bound.Cmp(want.Bound) != 0 {
			t.Fatalf("%s: bound %v ≠ %v", fx.name, got.Bound, want.Bound)
		}
		if len(got.Tables) != len(want.Tables) {
			t.Fatalf("%s: %d tables ≠ %d", fx.name, len(got.Tables), len(want.Tables))
		}
		for b, wt := range want.Tables {
			gt, ok := got.Tables[b]
			if !ok {
				t.Fatalf("%s: decoded run missing target %v", fx.name, b)
			}
			if !reflect.DeepEqual(gt.SortedRows(), wt.SortedRows()) {
				t.Fatalf("%s: target %v rows differ after round trip", fx.name, b)
			}
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("%s: stats differ after round trip:\n%+v\n%+v", fx.name, got.Stats, want.Stats)
		}
	}
}

// TestDBPlanPersistence drives the facade path end to end: a session with
// WithPlanDir pays planning once, snapshots, and a second session over the
// same directory answers the same (and a renamed) query with zero LP
// solves. This is the library-level version of pandad's warm restart.
func TestDBPlanPersistence(t *testing.T) {
	dir := t.TempDir()
	seed := func(db *DB) {
		t.Helper()
		for _, rel := range []struct {
			name string
			rows [][]Value
		}{
			{"R", [][]Value{{1, 2}, {2, 3}}},
			{"S", [][]Value{{2, 5}, {3, 7}}},
		} {
			if err := db.CreateRelation(rel.name, 2); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert(rel.name, rel.rows...); err != nil {
				t.Fatal(err)
			}
		}
	}
	const src = `Q(A,B,C) :- R(A,B), S(B,C).`

	db1 := Open(WithPlanDir(dir))
	seed(db1)
	res1, err := db1.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if st := db1.PlannerStats(); st.LPSolves == 0 {
		t.Fatalf("cold session did no planning: %v", st)
	}
	if err := db1.SnapshotPlans(); err != nil {
		t.Fatal(err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, PlanSnapshotFile)); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	db2 := Open(WithPlanDir(dir))
	defer db2.Close()
	seed(db2)
	res2, err := db2.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Query(`Q(X,Y,Z) :- R(X,Y), S(Y,Z).`); err != nil {
		t.Fatal(err)
	}
	st := db2.PlannerStats()
	if st.LPSolves != 0 || st.Misses != 0 {
		t.Fatalf("warm session did planning work: %v", st)
	}
	if st.Hits != 2 || st.LPSolvesSaved == 0 {
		t.Fatalf("warm session hits=%d lp-saved=%d, want 2 hits and lp-saved > 0", st.Hits, st.LPSolvesSaved)
	}
	if !reflect.DeepEqual(res1.Rows(), res2.Rows()) || res1.Width.Cmp(res2.Width) != 0 {
		t.Fatal("warm-restart result differs from the cold run")
	}

	// A catalog change (different sizes → different constraint set) keys a
	// different signature: the warm plan must NOT be served for it.
	if err := db2.Insert("R", []Value{9, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Query(src); err != nil {
		t.Fatal(err)
	}
	if st := db2.PlannerStats(); st.Misses != 1 {
		t.Fatalf("resized catalog should replan, got %v", st)
	}
}

// TestDBLoadPlanDirMissing: a configured-but-empty plan directory is not an
// error; an unconfigured session is.
func TestDBLoadPlanDirMissing(t *testing.T) {
	db := Open(WithPlanDir(t.TempDir()))
	defer db.Close()
	stats, err := db.LoadPlanDir()
	if err != nil || stats.Loaded != 0 {
		t.Fatalf("empty dir: stats=%v err=%v", stats, err)
	}
	bare := Open()
	defer bare.Close()
	if _, err := bare.LoadPlanDir(); err == nil {
		t.Fatal("LoadPlanDir without WithPlanDir should fail")
	}
	if err := bare.SnapshotPlans(); err == nil {
		t.Fatal("SnapshotPlans without WithPlanDir should fail")
	}
}
