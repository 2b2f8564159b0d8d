package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"panda"
	"panda/internal/query"
	"panda/internal/server"
)

// serving is pandad read traffic: closed-loop clients POST /v1/query to an
// in-process server on loopback over a small catalog. Hot requests repeat
// pool texts and are statement-memo hits after their first send; fresh
// requests are new variable renamings that miss the statement cache and
// the plan fingerprint, hit the canonical plan, and execute.
type serving struct {
	in      servingInputs
	ref     []servingRef
	clients []*servingClient

	h       *harness
	db      *panda.DB
	srv     *server.Server
	warm    [][]byte // setup's response per pool text
	golden  [][]byte // deterministic prefix of each verified warm response
	ingestN int
	ingestS float64
	nextOp  atomic.Int64
}

// servingRef is a pool text's reference answer, computed by brute-force
// join; renamings share it, since columns follow variable positions.
type servingRef struct {
	rule bool
	dg   digest
	ok   bool
	body [][]int64 // rule body tuples, for the model check
}

func newServing(seed int64) (*serving, error) {
	w := &serving{in: genServing(seed)}
	for _, e := range w.in.pool {
		pr, err := query.Parse(e.text)
		if err != nil {
			return nil, err
		}
		ins, err := bindRows(&pr.Rule.Schema, w.in.rels)
		if err != nil {
			return nil, err
		}
		var ref servingRef
		if pr.Conj == nil {
			ref.rule, ref.body = true, bodyTuples(ins)
		} else {
			ref.dg, ref.ok = fullJoinAnswer(pr.Conj, ins)
		}
		w.ref = append(w.ref, ref)
	}
	n := min(servingClients, runtime.NumCPU())
	for c := 0; c < n; c++ {
		w.clients = append(w.clients, newServingClient(seed, c, w.in.pool))
	}
	return w, nil
}

func (w *serving) setup(ctx context.Context) error {
	if w.h == nil {
		h, err := startHarness(len(w.clients))
		if err != nil {
			return err
		}
		w.h = h
	}
	w.db = panda.Open()
	w.ingestN, w.ingestS = 0, 0
	for _, name := range servingRels {
		if err := w.db.CreateRelation(name, 2); err != nil {
			return err
		}
		rows := toValues(w.in.rels[name])
		t0 := time.Now()
		if err := w.db.Insert(name, rows...); err != nil {
			return err
		}
		w.ingestS += time.Since(t0).Seconds()
		w.ingestN += len(rows)
	}
	w.srv = server.New(server.Config{DB: w.db})
	w.h.srv.Store(w.srv)
	w.warm = w.warm[:0]
	for _, e := range w.in.pool {
		status, body, err := w.h.post(ctx, "/v1/query", queryBody(e.text), 0, 0)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("warm-up %q: status %d: %s", e.text, status, body)
		}
		w.warm = append(w.warm, body)
	}
	return nil
}

func (w *serving) ingest() (int, float64) { return w.ingestN, w.ingestS }

func toValues(rows [][]int64) [][]panda.Value {
	out := make([][]panda.Value, len(rows))
	for i, r := range rows {
		out[i] = []panda.Value{panda.Value(r[0]), panda.Value(r[1])}
	}
	return out
}

func (w *serving) check(context.Context) error {
	w.golden = w.golden[:0]
	for i, body := range w.warm {
		if err := w.verify(i, body); err != nil {
			return fmt.Errorf("warm-up %q: %w", w.in.pool[i].text, err)
		}
		w.golden = append(w.golden, append([]byte(nil), detPrefix(body)...))
	}
	return nil
}

// queryResponse is the part of a /v1/query body the oracle reads.
type queryResponse struct {
	OK     bool      `json:"ok"`
	Rows   [][]int64 `json:"rows"`
	Tables []struct {
		Target string    `json:"target"`
		Rows   [][]int64 `json:"rows"`
	} `json:"tables"`
}

// verify checks a response for pool text i (or a renaming of it) against
// the reference: the row set of a conjunctive query, the Boolean answer,
// or, for the rule, that the tables form a model of the body.
func (w *serving) verify(i int, body []byte) error {
	var r queryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	ref := w.ref[i]
	if ref.rule {
		// pandad orders tables by target variable set: {0,1,2}, {1,2,3}.
		if len(r.Tables) != 2 {
			return fmt.Errorf("rule answer has %d tables, want 2", len(r.Tables))
		}
		if !coversBody(ref.body, [][]int{{0, 1, 2}, {1, 2, 3}}, [][][]int64{r.Tables[0].Rows, r.Tables[1].Rows}) {
			return fmt.Errorf("rule answer is not a model")
		}
		return nil
	}
	if r.OK != ref.ok {
		return fmt.Errorf("answer %t, oracle %t", r.OK, ref.ok)
	}
	if r.Rows != nil {
		var got digest
		for _, row := range r.Rows {
			got.add(row)
		}
		if got != ref.dg {
			return fmt.Errorf("rows %v, oracle %v", got, ref.dg)
		}
	}
	return nil
}

func (w *serving) run(ctx context.Context, d time.Duration, needMin bool, tr *tracer) *phase {
	var sh *shadow
	var ps0 panda.PlannerStats
	var m0 map[string]float64
	if tr != nil {
		var err error
		warm := make([]string, len(w.in.pool))
		for i, e := range w.in.pool {
			warm[i] = e.text
		}
		if sh, err = newShadow(ctx, w.in.rels, warm, &shadowStats{}); err != nil {
			ph := &phase{}
			ph.fail("shadow: %v", err)
			return ph
		}
		defer sh.close()
		if m0, err = w.h.scrape(ctx); err != nil {
			ph := &phase{}
			ph.fail("metrics: %v", err)
			return ph
		}
		w.h.tr.Store(tr)
		defer w.h.tr.Store(nil)
		ps0 = w.db.PlannerStats()
	}
	var primary, planned atomic.Int64
	var bytesOut atomic.Int64
	phases := make([]*phase, len(w.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c, sc := range w.clients {
		ph := &phase{}
		phases[c] = ph
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				short := primary.Load() < int64(needSamples) || planned.Load() < int64(needSamples)
				if !keepGoing(time.Since(start), d, needMin, short) {
					return
				}
				op := sc.next()
				id := w.nextOp.Add(1)
				var root, cs int32
				if tr != nil {
					root = tr.start(id, 0, "bench", "serving.request")
					cs = tr.start(id, root, "client", "http.POST /v1/query")
				} else {
					id = 0
				}
				t0 := time.Now()
				status, body, err := w.h.post(ctx, "/v1/query", queryBody(op.text), id, cs)
				t1 := time.Now()
				tr.finish(cs)
				ph.attempted++
				switch {
				case err != nil:
					err = fmt.Errorf("%q: %w", op.text, err)
				case status != 200:
					err = fmt.Errorf("%q: status %d: %s", op.text, status, body)
				case op.fresh:
					if err = w.verify(op.pool, body); err != nil {
						err = fmt.Errorf("%q: %w", op.text, err)
					}
				case !bytes.Equal(detPrefix(body), w.golden[op.pool]):
					err = fmt.Errorf("%q: response differs from the verified answer", op.text)
				}
				if err == nil && sh != nil {
					err = sh.request(ctx, tr, id, root, op.text, !op.fresh)
				}
				tr.finish(root)
				if err != nil {
					ph.fail("%v", err)
					continue
				}
				bytesOut.Add(int64(len(body)))
				if op.fresh {
					ph.add(classPlanned, true, t0, t1)
					planned.Add(1)
				} else {
					ph.add(classPrimary, true, t0, t1)
					primary.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	ph := &phase{start: start, stop: time.Now()}
	for _, p := range phases {
		ph.merge(p)
	}
	if tr == nil {
		return ph
	}
	ph.layer = map[string]float64{}
	m1, err := w.h.scrape(ctx)
	if err != nil {
		ph.fail("metrics: %v", err)
		return ph
	}
	hits := m1["panda_stmt_cache_hits_total"] - m0["panda_stmt_cache_hits_total"]
	misses := m1["panda_stmt_cache_misses_total"] - m0["panda_stmt_cache_misses_total"]
	ph.layer["server.stmt_cache_hit_ratio"] = ratio(hits, hits+misses)
	ph.layer["server.response_bytes_per_req"] = ratio(float64(bytesOut.Load()), float64(ph.ops))
	planDelta(ps0, w.db.PlannerStats(), ph.ops, ph.layer)
	sh.st.finish(ph.layer)
	spanLayers(tr.snapshot(), ph.layer)
	return ph
}

func (w *serving) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.srv.Shutdown(ctx)
		cancel()
		w.db.Close()
		w.srv, w.db = nil, nil
	}
	if w.h != nil {
		w.h.close()
		w.h = nil
	}
}
