package panda

import (
	"testing"

	"panda/internal/workload"
)

// TestEvalDispatch covers the three arms of DB.Eval's ModeAuto dispatch.
func TestEvalDispatch(t *testing.T) {
	db := Open()
	defer db.Close()
	// Full.
	q := FourCycleQuery()
	ins := CycleWorstCase(q, 8)
	res, err := db.Eval(q, ins, nil)
	if err != nil || !res.OK || res.Size() != 64 || res.Mode != ModeFull {
		t.Fatalf("full: %v %v", res, err)
	}
	// Boolean.
	qb := BooleanFourCycle()
	res, err = db.Eval(qb, CycleWorstCase(qb, 8), nil)
	if err != nil || !res.OK || res.Rel != nil {
		t.Fatalf("boolean: %v %v", res, err)
	}
	// Projection: Q(A1, A3) over the worst case — A2 = A4 = 0 always, so
	// the projection is the full [m]×[m] grid.
	qp := FourCycleQuery()
	qp.Free = Vars(0, 2)
	res, err = db.Eval(qp, CycleWorstCase(qp, 8), nil)
	if err != nil || !res.OK {
		t.Fatalf("projection: %v %v", res, err)
	}
	if res.Size() != 64 || res.Rel.Attrs() != Vars(0, 2) {
		t.Fatalf("projection result: %d tuples over %v", res.Size(), res.Rel.Attrs())
	}
}

// TestEvalProjectionMatchesBruteForce on random instances.
func TestEvalProjectionMatchesBruteForce(t *testing.T) {
	q := workload.TriangleQuery()
	q.Free = Vars(0, 1)
	db := Open()
	defer db.Close()
	for seed := int64(0); seed < 6; seed++ {
		ins := RandomInstance(seed, &q.Schema, 30, 5)
		res, err := db.Eval(q, ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ins.FullJoin().Project(Vars(0, 1))
		if !res.Rel.Equal(want) {
			t.Fatalf("seed %d: %d vs %d tuples", seed, res.Size(), want.Size())
		}
	}
}
