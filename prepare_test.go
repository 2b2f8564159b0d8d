package panda

import (
	"reflect"
	"testing"

	"panda/internal/plan"
)

// TestFacadePreparedQuery: the session plans a query once, answers it with
// the brute-force join's rows, and serves repeats from the plan cache
// without LP work.
func TestFacadePreparedQuery(t *testing.T) {
	db := Open(WithPlannerCapacity(8))
	defer db.Close()
	q := FourCycleQuery()
	ins := RandomInstance(3, &q.Schema, 200, 24)
	want := ins.FullJoin().SortedRows()

	res, err := db.Eval(q, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeFull {
		t.Fatalf("full query planned as %v", res.Mode)
	}
	if res.Width == nil || res.Signature == "" || res.Stats == nil {
		t.Fatal("result lacks width certificate, signature or stats")
	}
	if res.OK != (len(want) > 0) || !reflect.DeepEqual(res.Rows(), want) {
		t.Fatalf("prepared result diverges from brute force: %d rows vs %d", res.Size(), len(want))
	}

	solved := db.PlannerStats().LPSolves
	if _, err := db.Eval(q, ins, nil); err != nil {
		t.Fatal(err)
	}
	st := db.PlannerStats()
	if st.Hits != 1 || st.LPSolves != solved {
		t.Fatalf("re-preparation was not a free cache hit: %v", st)
	}

	// The explicit fhtw mode plans separately and answers the same rows.
	fres, err := db.Eval(q, ins, nil, WithMode(ModeFhtw))
	if err != nil {
		t.Fatal(err)
	}
	if fres.Mode != ModeFhtw || !reflect.DeepEqual(fres.Rows(), want) {
		t.Fatal("fhtw prepared result diverges from brute force")
	}
	if db.CachedPlans() != 2 {
		t.Fatalf("cache holds %d plans, want 2 (full + fhtw)", db.CachedPlans())
	}
}

// TestFacadePrepareRule: rule planning yields a proof sequence whose bound
// is RuleBound's.
func TestFacadePrepareRule(t *testing.T) {
	p := PathRule()
	var dcs []Constraint
	for i, a := range p.Atoms {
		dcs = append(dcs, Cardinality(a.Vars, 16, i))
	}
	rp, _, err := plan.PrepareRule(&p.Schema, dcs, p.Targets)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RuleBound(p, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Bound.Cmp(want) != 0 {
		t.Fatalf("prepared rule bound %v ≠ RuleBound %v", rp.Bound, want)
	}
	if len(rp.Seq) == 0 {
		t.Fatal("prepared rule has no proof sequence")
	}
}

// TestFacadePreparedProjection: a proper projection query answers the
// projected brute-force join, both programmatically and through a prepared
// statement over the catalog.
func TestFacadePreparedProjection(t *testing.T) {
	q := FourCycleQuery()
	q.Free = Vars(0, 2)
	ins := RandomInstance(17, &q.Schema, 80, 12)
	want := ins.FullJoin().Project(q.Free).SortedRows()
	db := Open(WithPlannerCapacity(4))
	defer db.Close()
	res, err := db.Eval(q, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != (len(want) > 0) || !reflect.DeepEqual(res.Rows(), want) {
		t.Fatalf("projection diverges from brute force: %d rows vs %d", res.Size(), len(want))
	}
	loadCatalog(t, db, &q.Schema, ins)
	stmt, err := db.Prepare(`Q(A1,A3) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sres.Rows(), want) {
		t.Fatalf("prepared projection diverges from brute force: %d rows vs %d", sres.Size(), len(want))
	}
}
