package panda

import (
	"fmt"
	"testing"

	"panda/internal/query"
	"panda/internal/workload"
)

// TestAblationBudgetMatters shows that PANDA's Case-4b budget/truncation
// mechanism is what keeps intermediates at N^{3/2} on Example 1.8's
// worst-case inputs: with the budget disabled the run still produces a
// correct model, but materializes the quadratic join.
func TestAblationBudgetMatters(t *testing.T) {
	p := workload.PathRule()
	m := 64
	ins := workload.PathWorstCase(p, m)

	db := Open()
	defer db.Close()
	on, err := db.EvalRule(p, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, err := db.EvalRule(p, ins, nil, WithBudgetDisabled(true))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"budget-on": on, "budget-off": off} {
		ok, err := ins.IsModel(p, res.Tables)
		if err != nil || !ok {
			t.Fatalf("%s: not a model (%v)", name, err)
		}
	}
	// Unbudgeted, the run leaves the 2^OBJ envelope (OBJ = 1.5·log m = 2^9
	// here) by a wide margin; budgeted it must stay within polylog of it
	// and be far cheaper.
	bound, _ := off.Bound.Float64() // 9 for m = 64
	envelope := 1 << uint(bound)    // 512
	if off.Stats.MaxIntermediate <= envelope {
		t.Fatalf("ablation did not leave the budget envelope: %d ≤ 2^OBJ = %d",
			off.Stats.MaxIntermediate, envelope)
	}
	if 8*on.Stats.MaxIntermediate > off.Stats.MaxIntermediate {
		t.Fatalf("budgeted run (%d) should be ≥ 8× cheaper than unbudgeted (%d)",
			on.Stats.MaxIntermediate, off.Stats.MaxIntermediate)
	}
	if on.Stats.Restarts == 0 {
		t.Fatal("budgeted run should have exercised Case 4b on this input")
	}
}

// BenchmarkAblationBudget quantifies the Case-4b effect across sizes.
func BenchmarkAblationBudget(b *testing.B) {
	p := workload.PathRule()
	db := Open()
	defer db.Close()
	for _, m := range []int{64, 256} {
		ins := workload.PathWorstCase(p, m)
		for _, mode := range []struct {
			name     string
			noBudget bool
		}{
			{"budget-on", false},
			{"budget-off", true},
		} {
			b.Run(fmt.Sprintf("%s/N=%d", mode.name, m), func(b *testing.B) {
				var maxInt int
				for i := 0; i < b.N; i++ {
					res, err := db.EvalRule(p, ins, nil, WithBudgetDisabled(mode.noBudget))
					if err != nil {
						b.Fatal(err)
					}
					maxInt = res.Stats.MaxIntermediate
				}
				b.ReportMetric(float64(maxInt), "max-intermediate")
			})
		}
	}
}

// TestAblationModelSizeStillValid: even unbudgeted, outputs stay models on
// random inputs (the budget only affects performance, never correctness).
func TestAblationModelSizeStillValid(t *testing.T) {
	p := workload.PathRule()
	db := Open()
	defer db.Close()
	for seed := int64(0); seed < 5; seed++ {
		ins := RandomInstance(seed, &p.Schema, 40, 7)
		res, err := db.EvalRule(p, ins, nil, WithBudgetDisabled(true))
		if err != nil {
			t.Fatal(err)
		}
		ok, err := ins.IsModel(p, res.Tables)
		if err != nil || !ok {
			t.Fatalf("seed %d: not a model", seed)
		}
	}
	_ = query.ModelSize
}
