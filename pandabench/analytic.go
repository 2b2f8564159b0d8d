package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"panda"
	"panda/internal/baseline"
	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
)

// analytic is embedded library use with execution-bound reads: one client
// runs a report of four queries through DB.EvalContext / EvalRuleContext
// on instances built at set-up. There is no statement memo on this path,
// and after warm-up every conjunctive plan is a cache hit; the path rule
// plans on every call.
type analytic struct {
	qs  []analyticQuery
	par int
	ref []analyticRef

	db      *panda.DB
	items   []analyticItem
	warm    []*panda.Result
	ingestN int
	ingestS float64
}

type analyticItem struct {
	name string
	conj *query.Conjunctive
	rule *query.Disjunctive
	ins  *query.Instance
	mode plan.Mode
	opts []panda.Option
}

// analyticRef is a query's reference answer. The path rule's model is not
// unique, so its reference is the first answer the model check accepted.
type analyticRef struct {
	dg      digest
	ok      bool
	model   bool
	checked bool // the model check has accepted dg
}

func newAnalytic(seed int64) (*analytic, error) {
	w := &analytic{qs: genAnalytic(seed), par: runtime.NumCPU()}
	for _, aq := range w.qs {
		pr, err := query.Parse(aq.text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", aq.name, err)
		}
		ins, err := bindRows(&pr.Rule.Schema, aq.rels)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", aq.name, err)
		}
		var ref analyticRef
		switch {
		case aq.rule:
			ref.model = true
		case aq.subw:
			// The Example 1.10 instance against the fixed tree plan.
			_, ok, _, err := baseline.EvalTreePlan(pr.Conj, ins, nil)
			if err != nil {
				return nil, fmt.Errorf("%s oracle: %w", aq.name, err)
			}
			ref.ok = ok
		default:
			ref.dg, ref.ok = fullJoinAnswer(pr.Conj, ins)
		}
		w.ref = append(w.ref, ref)
	}
	return w, nil
}

func (w *analytic) setup(ctx context.Context) error {
	w.db = panda.Open()
	w.items = w.items[:0]
	w.ingestN, w.ingestS = 0, 0
	for _, aq := range w.qs {
		pr, err := query.Parse(aq.text)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ins, err := bindRows(&pr.Rule.Schema, aq.rels)
		if err != nil {
			return err
		}
		w.ingestS += time.Since(t0).Seconds()
		for _, rows := range aq.rels {
			w.ingestN += len(rows)
		}
		it := analyticItem{
			name: aq.name, conj: pr.Conj, ins: ins, mode: plan.ModeAuto,
			opts: []panda.Option{panda.WithParallelism(w.par), panda.WithPartitions(w.par)},
		}
		if aq.rule {
			it.conj, it.rule = nil, pr.Rule
		}
		if aq.subw {
			it.mode = plan.ModeSubw
			it.opts = append(it.opts, panda.WithMode(panda.ModeSubw))
		}
		w.items = append(w.items, it)
	}
	w.warm = w.warm[:0]
	for _, it := range w.items {
		res, err := w.eval(ctx, it)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", it.name, err)
		}
		w.warm = append(w.warm, res)
	}
	return nil
}

func (w *analytic) ingest() (int, float64) { return w.ingestN, w.ingestS }

func (w *analytic) eval(ctx context.Context, it analyticItem) (*panda.Result, error) {
	if it.rule != nil {
		return w.db.EvalRuleContext(ctx, it.rule, it.ins, nil, it.opts...)
	}
	return w.db.EvalContext(ctx, it.conj, it.ins, nil, it.opts...)
}

func (w *analytic) check(ctx context.Context) error {
	for i, res := range w.warm {
		it := w.items[i]
		if w.ref[i].model && !w.ref[i].checked {
			ok, err := it.ins.IsModel(it.rule, res.Tables)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("%s: answer is not a model of the rule", it.name)
			}
			w.ref[i].dg, w.ref[i].checked = tablesDigest(res.Tables), true
		}
		if err := w.verify(i, res.Rel, res.OK, res.Tables); err != nil {
			return err
		}
	}
	return nil
}

// verify compares one answer with the reference: rows for full queries,
// the Boolean answer otherwise, the accepted model for the rule.
func (w *analytic) verify(i int, rel *panda.Relation, ok bool, tables map[panda.Set]*panda.Relation) error {
	ref := w.ref[i]
	switch {
	case ref.model:
		if got := tablesDigest(tables); got != ref.dg {
			return fmt.Errorf("%s: model %v, want the checked model %v", w.items[i].name, got, ref.dg)
		}
	case ok != ref.ok:
		return fmt.Errorf("%s: answer %t, oracle %t", w.items[i].name, ok, ref.ok)
	case rel != nil:
		if got := relDigest(rel); got != ref.dg {
			return fmt.Errorf("%s: rows %v, oracle %v", w.items[i].name, got, ref.dg)
		}
	}
	return nil
}

func (w *analytic) run(ctx context.Context, d time.Duration, needMin bool, tr *tracer) *phase {
	if tr != nil {
		return w.runTraced(ctx, d, tr)
	}
	ph := &phase{start: time.Now()}
	for ctx.Err() == nil {
		short := ph.count(classPrimary) < needSamples || ph.count(classPlanned) < needSamples
		if !keepGoing(time.Since(ph.start), d, needMin, short) {
			break
		}
		t0 := time.Now()
		good := true
		for i, it := range w.items {
			ti := time.Now()
			res, err := w.eval(ctx, it)
			if err == nil {
				err = w.verify(i, res.Rel, res.OK, res.Tables)
			}
			if err != nil {
				ph.fail("%v", err)
				good = false
				continue
			}
			if it.rule != nil {
				now := time.Now()
				ph.add(classPlanned, false, ti, now)
			}
		}
		ph.attempted++
		if good {
			now := time.Now()
			ph.add(classPrimary, true, t0, now)
		}
	}
	ph.stop = time.Now()
	return ph
}

// runTraced drives the same report through the layers' own entry points —
// plan.Planner.PrepareContext, core.Executor.Execute and EvalDisjunctive,
// which is what DB.EvalContext does inside — so each layer gets a span.
func (w *analytic) runTraced(ctx context.Context, d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	pl := plan.NewPlanner(0)
	ex := &core.Executor{Parallelism: w.par, Partitions: w.par, Opt: core.Options{StageTimings: true}}
	cons := make([][]query.DegreeConstraint, len(w.items))
	for i, it := range w.items {
		if it.conj == nil {
			continue
		}
		cons[i] = core.CompleteConstraints(&it.conj.Schema, it.ins, nil)
		if _, err := pl.PrepareContext(ctx, it.conj, cons[i], it.mode); err != nil {
			ph.fail("warm-up %s: %v", it.name, err)
			return ph
		}
	}
	var acc coreAcc
	ps0 := pl.Stats()
	var op int64
	ph.start = time.Now()
	for time.Since(ph.start) < d && ctx.Err() == nil {
		op++
		t0 := time.Now()
		root := tr.start(op, 0, "bench", "analytic.report")
		good := true
		for i, it := range w.items {
			ti := time.Now()
			var err error
			if it.rule != nil {
				sp := tr.start(op, root, "core", "core.Executor.EvalDisjunctive:"+it.name)
				var res *core.Result
				res, err = ex.EvalDisjunctive(ctx, it.rule, it.ins, nil)
				tr.finish(sp)
				if err == nil {
					acc.add(res.Stats, res.Timings, res.Bound)
					err = w.verify(i, nil, false, res.Tables)
					now := time.Now()
					ph.add(classPlanned, false, ti, now)
				}
			} else {
				sp := tr.start(op, root, "plan", "plan.Planner.PrepareContext")
				var p *plan.Plan
				p, err = pl.PrepareContext(ctx, it.conj, cons[i], it.mode)
				tr.finish(sp)
				if err == nil {
					sp = tr.start(op, root, "core", "core.Executor.Execute:"+it.name)
					var res *core.ExecResult
					res, err = ex.Execute(ctx, p, it.ins)
					tr.finish(sp)
					if err == nil {
						acc.add(res.Stats, res.Timings, res.Width)
						// The facade's own step after Execute: the
						// projection onto the free variables.
						out := res.Out
						if out != nil && p.Free != out.Attrs() {
							sp = tr.start(op, root, "relation", "relation.Relation.Project")
							out = out.Project(p.Free)
							tr.finish(sp)
						}
						okAns := res.NonEmpty
						if out != nil {
							okAns = out.Size() > 0
						}
						// verify reads the output through the relation's
						// cursor, which decodes interned ids.
						sp = tr.start(op, root, "relation", "relation.Relation.All")
						err = w.verify(i, out, okAns, nil)
						tr.finish(sp)
					}
				}
			}
			if err != nil {
				ph.fail("%v", err)
				good = false
			}
		}
		tr.finish(root)
		acc.op()
		ph.attempted++
		if good {
			now := time.Now()
			ph.add(classPrimary, true, t0, now)
		}
	}
	ph.stop = time.Now()
	ph.layer = map[string]float64{}
	acc.finish(ph.layer)
	planDelta(ps0, pl.Stats(), ph.ops, ph.layer)
	ls := spanDurations(tr.snapshot())
	for _, it := range w.items {
		name := "core.Executor.Execute:" + it.name
		if it.rule != nil {
			name = "core.Executor.EvalDisjunctive:" + it.name
		}
		ph.layer["core.execute_ms."+it.name] = median(ls[name]) / 1e3
	}
	ph.layer["plan.prepare_ms_p50"] = median(ls["plan.Planner.PrepareContext"]) / 1e3
	return ph
}

func (w *analytic) close() {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}
