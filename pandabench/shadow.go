package main

import (
	"context"
	"fmt"
	"sync"

	"panda"
	"panda/internal/plan"
	"panda/internal/query"
)

// shadow attributes a traced request's time to the layers below the
// server. pandad calls query.Parse, DB.Prepare and Stmt.QueryContext inside
// its handler, where the benchmark cannot put spans without tracing inside
// the program. So a traced run replays each request, right after it, on a
// shadow session that holds the same catalog and sees the same request
// sequence — hence the same statement, plan and memo cache states — and
// spans the benchmark's own calls into those entry points.
type shadow struct {
	db *panda.DB
	st *shadowStats

	mu    sync.Mutex
	sizes map[string]int64
	stmts map[string]*panda.Stmt
	last  map[*panda.Stmt]*panda.Result
}

// shadowStats is what the replays measured; it may outlive one shadow
// session (the live workload starts a new one per epoch).
type shadowStats struct {
	mu         sync.Mutex
	queries    int
	memoHits   int
	facadeSelf []float64 // µs: Stmt.QueryContext less the engine stages it ran
	prepareMs  []float64 // ms: plan wait of executed queries
	core       coreAcc
}

// newShadow loads rels into a fresh session and brings it to the warm
// state of the program instance it mirrors by running each warm text once;
// only later requests count in st.
func newShadow(ctx context.Context, rels map[string][][]int64, warm []string, st *shadowStats) (*shadow, error) {
	sh := &shadow{
		db:    panda.Open(),
		st:    &shadowStats{},
		sizes: map[string]int64{},
		stmts: map[string]*panda.Stmt{},
		last:  map[*panda.Stmt]*panda.Result{},
	}
	for _, name := range sortedKeys(rels) {
		if err := sh.db.CreateRelation(name, 2); err != nil {
			sh.close()
			return nil, err
		}
		if err := sh.insert(nil, 0, 0, name, rels[name]); err != nil {
			sh.close()
			return nil, err
		}
	}
	for _, src := range warm {
		if err := sh.request(ctx, nil, 0, 0, src, true); err != nil {
			sh.close()
			return nil, err
		}
	}
	sh.st = st
	return sh, nil
}

// insert mirrors a row write: DB.Insert, the facade's entry into the
// relation layer's dedup insert.
func (sh *shadow) insert(tr *tracer, op int64, parent int32, name string, rows [][]int64) error {
	vals := toValues(rows)
	sp := tr.start(op, parent, "facade", "DB.Insert")
	err := sh.db.Insert(name, vals...)
	tr.finish(sp)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	sh.sizes[name] += int64(len(rows))
	sh.mu.Unlock()
	return nil
}

// request mirrors pandad's /v1/query handling of src: resolve the
// statement (a cached one when keep is set and it was seen before, else
// parse, canonicalize and prepare it) and run it with stage timings on, as
// pandad does.
func (sh *shadow) request(ctx context.Context, tr *tracer, op int64, parent int32, src string, keep bool) error {
	sh.mu.Lock()
	st := sh.stmts[src]
	sh.mu.Unlock()
	if st == nil {
		sp := tr.start(op, parent, "query", "query.Parse")
		pr, err := query.Parse(src)
		tr.finish(sp)
		if err != nil {
			return err
		}
		if pr.Conj != nil {
			cons := make([]query.DegreeConstraint, 0, len(pr.Conj.Atoms))
			sh.mu.Lock()
			for i, a := range pr.Conj.Atoms {
				cons = append(cons, query.Cardinality(a.Vars, max(sh.sizes[a.Name], 1), i))
			}
			sh.mu.Unlock()
			sp = tr.start(op, parent, "plan", "plan.Canonicalize")
			_, err = plan.Canonicalize(pr.Conj, cons, plan.ModeAuto)
			tr.finish(sp)
			if err != nil {
				return err
			}
		}
		sp = tr.start(op, parent, "facade", "DB.Prepare")
		st, err = sh.db.Prepare(src)
		tr.finish(sp)
		if err != nil {
			return err
		}
		if keep {
			sh.mu.Lock()
			sh.stmts[src] = st
			sh.mu.Unlock()
		}
	}
	sp := tr.start(op, parent, "facade", "Stmt.QueryContext")
	res, err := st.QueryContext(ctx, panda.WithStageTimings(true))
	d := tr.finish(sp)
	if err != nil {
		return err
	}
	if res.Timings == nil {
		return fmt.Errorf("shadow %q: no stage timings", src)
	}
	sh.mu.Lock()
	hit := sh.last[st] == res
	if keep {
		sh.last[st] = res
	}
	sh.mu.Unlock()

	s := sh.st
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	if hit {
		s.memoHits++
		s.facadeSelf = append(s.facadeSelf, float64(d.Microseconds()))
		return nil
	}
	t := res.Timings
	engine := t.PrepareWait + t.RuleFanout + t.Merge
	s.facadeSelf = append(s.facadeSelf, float64((d - engine).Microseconds()))
	s.prepareMs = append(s.prepareMs, ms(t.PrepareWait.Seconds()))
	s.core.add(res.Stats, res.Timings, res.Width)
	s.core.op()
	return nil
}

func (sh *shadow) close() { sh.db.Close() }

// finish reports the facade-, plan- and core-level figures of the replays.
func (s *shadowStats) finish(out map[string]float64) {
	s.core.finish(out)
	s.mu.Lock()
	defer s.mu.Unlock()
	out["facade.memo_hit_ratio"] = ratio(float64(s.memoHits), float64(s.queries))
	out["facade.query_self_us_p50"] = median(s.facadeSelf)
	out["plan.prepare_ms_p50"] = median(s.prepareMs)
}

// serverSelf estimates, per traced op, the server layer's own time: the
// ServeHTTP spans less the facade spans the shadow replay of the same op
// recorded (µs).
func serverSelf(spans []Span) []float64 {
	type acc struct{ server, facade int64 }
	byOp := map[int64]*acc{}
	for _, s := range spans {
		a := byOp[s.Op]
		if a == nil {
			a = &acc{}
			byOp[s.Op] = a
		}
		switch s.Name {
		case "server.Server.ServeHTTP":
			a.server += s.dur()
		case "DB.Prepare", "Stmt.QueryContext", "DB.Insert":
			a.facade += s.dur()
		}
	}
	var out []float64
	for _, a := range byOp {
		if a.server > 0 {
			out = append(out, float64(a.server-a.facade)/1e3)
		}
	}
	return out
}

// spanLayers reduces spans to the layer metrics both HTTP workloads share.
func spanLayers(spans []Span, out map[string]float64) {
	ls := spanDurations(spans)
	out["query.parse_us_p50"] = median(ls["query.Parse"])
	out["plan.canonicalize_us_p50"] = median(ls["plan.Canonicalize"])
	out["facade.prepare_us_p50"] = median(ls["DB.Prepare"])
	out["server.self_us_p50"] = median(serverSelf(spans))
}
