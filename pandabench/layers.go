package main

import (
	"math/big"
	"sync"

	"panda/internal/core"
	"panda/internal/plan"
)

// coreAcc accumulates the counts the engine itself reports (core.Stats and
// core.Timings) over the ops that executed, for the core.* metrics.
type coreAcc struct {
	mu          sync.Mutex
	ops         int
	stepMs      map[string]float64
	fanoutMs    float64
	mergeMs     float64
	joins       float64
	partitions  float64
	subproblems float64
	maxInter    int
	overBound   float64
}

// add folds one execution's report into the current op.
func (c *coreAcc) add(st *core.Stats, tm *core.Timings, width *big.Rat) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stepMs == nil {
		c.stepMs = map[string]float64{}
	}
	if st != nil {
		c.joins += float64(st.Joins)
		c.partitions += float64(st.Partitions)
		c.subproblems += float64(st.Subproblems)
		c.maxInter = max(c.maxInter, st.MaxIntermediate)
		c.overBound = max(c.overBound, overBound(st.MaxIntermediate, width))
	}
	if tm != nil {
		for k, d := range tm.Steps {
			c.stepMs[k] += ms(d.Seconds())
		}
		c.fanoutMs += ms(tm.RuleFanout.Seconds())
		c.mergeMs += ms(tm.Merge.Seconds())
	}
}

// op closes one executing op.
func (c *coreAcc) op() {
	c.mu.Lock()
	c.ops++
	c.mu.Unlock()
}

func (c *coreAcc) finish(out map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := float64(max(c.ops, 1))
	for _, k := range []string{"submodularity", "monotonicity", "decomposition", "composition"} {
		out["core.step_ms."+k] = c.stepMs[k] / n
	}
	out["core.rule_fanout_ms"] = c.fanoutMs / n
	out["core.merge_ms"] = c.mergeMs / n
	out["core.joins_per_op"] = c.joins / n
	out["core.partitions_per_op"] = c.partitions / n
	out["core.subproblems_per_op"] = c.subproblems / n
	out["core.max_intermediate_rows"] = float64(c.maxInter)
	out["core.intermediate_over_bound"] = c.overBound
}

// planDelta turns two planner snapshots into the plan.* count metrics.
func planDelta(a, b plan.Stats, ops int, out map[string]float64) {
	hits, misses := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
	out["plan.lp_solves_per_op"] = float64(b.LPSolves-a.LPSolves) / float64(max(ops, 1))
	out["plan.hit_ratio"] = ratio(hits, hits+misses)
}

func ms(sec float64) float64 { return sec * 1e3 }
