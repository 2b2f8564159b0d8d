package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"panda"
	"panda/internal/core"
	"panda/internal/incr"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/server"
)

// live is writes beside reads over HTTP: a standing triangle query is open
// on POST /v1/watch, and the writer POSTs batches of fresh rows and waits
// for each batch's delta line. Every liveReadEvery-th write is followed by
// a one-shot triangle-projection read, which replans because the write
// moved the cardinalities. To keep catalog growth near 10%, the run is cut
// into epochs of liveWrites writes; each epoch starts over on a freshly
// loaded program instance, and the rebuild is not measured.
type live struct {
	in liveInputs

	h       *harness
	db      *panda.DB
	srv     *server.Server
	watch   *watchStream
	warmRd  []byte
	ingestN int
	ingestS float64
	// next is the epoch position: the index of the next write.
	next  int
	state digest // the triangle set after the writes so far (oracle)
	mat   digest // the client's materialization: snapshot + delta lines
	op    int64
}

func newLive(seed int64) (*live, error) { return &live{in: genLive(seed)}, nil }

func (w *live) setup(ctx context.Context) error {
	if w.h == nil {
		h, err := startHarness(2)
		if err != nil {
			return err
		}
		w.h = h
	}
	w.db = panda.Open()
	w.ingestN, w.ingestS = 0, 0
	for k, name := range liveRels {
		if err := w.db.CreateRelation(name, 2); err != nil {
			return err
		}
		rows := toValues(w.in.rels[k])
		t0 := time.Now()
		if err := w.db.Insert(name, rows...); err != nil {
			return err
		}
		w.ingestS += time.Since(t0).Seconds()
		w.ingestN += len(rows)
	}
	w.srv = server.New(server.Config{DB: w.db})
	w.h.srv.Store(w.srv)
	ws, err := openWatch(ctx, w.h, liveWatchText)
	if err != nil {
		return err
	}
	w.watch = ws
	status, body, err := w.h.post(ctx, "/v1/query", queryBody(liveReadText), 0, 0)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("warm-up read: status %d: %s", status, body)
	}
	w.warmRd = body
	w.next, w.state = 0, w.in.init
	return nil
}

func (w *live) ingest() (int, float64) { return w.ingestN, w.ingestS }

func (w *live) check(context.Context) error {
	snap, err := decodeRows(w.watch.snapshot)
	if err != nil {
		return fmt.Errorf("watch snapshot: %w", err)
	}
	if snap != w.in.init {
		return fmt.Errorf("watch snapshot %v, oracle %v", snap, w.in.init)
	}
	w.mat = snap
	rd, err := decodeRows(w.warmRd)
	if err != nil {
		return fmt.Errorf("warm-up read: %w", err)
	}
	if rd != w.in.initProj {
		return fmt.Errorf("warm-up read %v, oracle %v", rd, w.in.initProj)
	}
	return nil
}

// decodeRows digests the "rows" of a response body or stream line.
func decodeRows(body []byte) (digest, error) {
	var r struct {
		Rows   [][]int64 `json:"rows"`
		Resync bool      `json:"resync"`
		Error  string    `json:"error"`
	}
	var d digest
	if err := json.Unmarshal(body, &r); err != nil {
		return d, err
	}
	if r.Error != "" || r.Resync {
		return d, fmt.Errorf("unexpected line %s", body)
	}
	for _, row := range r.Rows {
		d.add(row)
	}
	return d, nil
}

// liveTrace is the traced run's view below the server: a shadow session
// for the facade, and a copy of the watch's maintenance state on which the
// benchmark calls the relation and incr layers itself.
type liveTrace struct {
	tr    *tracer
	sh    *shadow
	stats shadowStats
	s     *query.Schema
	ins   *query.Instance
	p     *plan.Plan
	exec  *core.Executor
	readQ *query.Conjunctive
	pl    *plan.Planner

	rows       int
	deltaRows  int
	deltaLines int
	m0         map[string]float64
	ps0        plan.Stats
	hits       float64
	misses     float64
	deltas     float64
	resyncs    float64
	lp         plan.Stats
	bytesOut   int
	responses  int
}

// begin mirrors a freshly set-up epoch: the shadow session, and the
// watch's pinned plan over its own copy of the catalog, executed with the
// budget off as Stmt.Watch does.
func (lt *liveTrace) begin(ctx context.Context, w *live) error {
	rels := map[string][][]int64{}
	for k, name := range liveRels {
		rels[name] = w.in.rels[k]
	}
	if lt.sh != nil {
		lt.sh.close()
	}
	var err error
	if lt.sh, err = newShadow(ctx, rels, []string{liveReadText}, &lt.stats); err != nil {
		return err
	}
	pr, err := query.Parse(liveWatchText)
	if err != nil {
		return err
	}
	lt.s = &pr.Rule.Schema
	if lt.ins, err = bindRows(lt.s, rels); err != nil {
		return err
	}
	lt.exec = &core.Executor{Opt: core.Options{DisableBudget: true}}
	rd, err := query.Parse(liveReadText)
	if err != nil {
		return err
	}
	lt.readQ, lt.pl = rd.Conj, plan.NewPlanner(0)
	lt.p, _, err = plan.PrepareContext(ctx, pr.Conj, core.CompleteConstraints(lt.s, lt.ins, nil), plan.ModeAuto)
	if err != nil {
		return err
	}
	if lt.m0, err = w.h.scrape(ctx); err != nil {
		return err
	}
	lt.ps0 = w.db.PlannerStats()
	return nil
}

// end folds an epoch's server counters into the totals.
func (lt *liveTrace) end(ctx context.Context, w *live) error {
	m1, err := w.h.scrape(ctx)
	if err != nil {
		return err
	}
	lt.hits += m1["panda_stmt_cache_hits_total"] - lt.m0["panda_stmt_cache_hits_total"]
	lt.misses += m1["panda_stmt_cache_misses_total"] - lt.m0["panda_stmt_cache_misses_total"]
	lt.deltas += m1["panda_watch_deltas_total"] - lt.m0["panda_watch_deltas_total"]
	lt.resyncs += m1["panda_watch_resyncs_total"] - lt.m0["panda_watch_resyncs_total"]
	ps := w.db.PlannerStats()
	lt.lp.Hits += ps.Hits - lt.ps0.Hits
	lt.lp.Misses += ps.Misses - lt.ps0.Misses
	lt.lp.LPSolves += ps.LPSolves - lt.ps0.LPSolves
	return nil
}

// write mirrors one batch below the server: the facade insert on the
// shadow, then the watch's maintenance round — the dedup insert of the
// delta into the full instance and incr.Maintain.
func (lt *liveTrace) write(ctx context.Context, op int64, root int32, k int, rows [][]int64) error {
	if err := lt.sh.insert(lt.tr, op, root, liveRels[k], rows); err != nil {
		return err
	}
	dIns, err := bindRows(lt.s, map[string][][]int64{liveRels[0]: nil, liveRels[1]: nil, liveRels[2]: nil, liveRels[k]: rows})
	if err != nil {
		return err
	}
	sp := lt.tr.start(op, root, "relation", "relation.Relation.InsertAll")
	lt.ins.Relations[k].InsertAll(dIns.Relations[k])
	lt.tr.finish(sp)
	lt.rows += len(rows)
	sp = lt.tr.start(op, root, "incr", "incr.Maintain")
	_, err = incr.Maintain(ctx, lt.exec, lt.p, lt.s, lt.ins, dIns.Relations)
	lt.tr.finish(sp)
	return err
}

// read mirrors a one-shot read on the shadow and its replan on a planner
// of its own (the read's atoms are the watch's, so the mirrored instance
// holds its current cardinalities), and re-executes the watch's plan in
// full, the cost incremental maintenance avoids.
func (lt *liveTrace) read(ctx context.Context, op int64, root int32) error {
	if err := lt.sh.request(ctx, lt.tr, op, root, liveReadText, true); err != nil {
		return err
	}
	cons := core.CompleteConstraints(lt.s, lt.ins, nil)
	sp := lt.tr.start(op, root, "plan", "plan.Planner.PrepareContext")
	_, err := lt.pl.PrepareContext(ctx, lt.readQ, cons, plan.ModeAuto)
	lt.tr.finish(sp)
	if err != nil {
		return err
	}
	sp = lt.tr.start(op, root, "core", "core.Executor.Execute:full_triangle")
	_, err = lt.exec.Execute(ctx, lt.p, lt.ins)
	lt.tr.finish(sp)
	return err
}

func (lt *liveTrace) finish(ops int, out map[string]float64) {
	spans := lt.tr.snapshot()
	ls := spanDurations(spans)
	out["relation.insert_us_per_row"] = ratio(sum(ls["relation.Relation.InsertAll"]), float64(lt.rows))
	maintain := median(ls["incr.Maintain"]) / 1e3
	out["incr.maintain_ms_p50"] = maintain
	out["incr.maintain_over_full"] = ratio(maintain, median(ls["core.Executor.Execute:full_triangle"])/1e3)
	out["incr.delta_rows_per_round"] = ratio(float64(lt.deltaRows), float64(lt.deltaLines))
	out["incr.incremental_ratio"] = ratio(lt.deltas-lt.resyncs, lt.deltas)
	out["server.stmt_cache_hit_ratio"] = ratio(lt.hits, lt.hits+lt.misses)
	out["server.response_bytes_per_req"] = ratio(float64(lt.bytesOut), float64(lt.responses))
	spanLayers(spans, out)
	planDelta(plan.Stats{}, lt.lp, ops, out)
	lt.stats.finish(out)
	lt.sh.close()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func (w *live) run(ctx context.Context, d time.Duration, needMin bool, tr *tracer) *phase {
	ph := &phase{}
	var lt *liveTrace
	if tr != nil {
		lt = &liveTrace{tr: tr}
		if err := w.restart(ctx, lt); err != nil {
			ph.fail("epoch: %v", err)
			return ph
		}
		w.h.tr.Store(tr)
		defer w.h.tr.Store(nil)
	}
	ph.start = time.Now()
	for ctx.Err() == nil {
		ph.stop = time.Now()
		short := ph.count(classPrimary) < needSamples || ph.count(classPlanned) < needSamples
		if !keepGoing(ph.elapsed(), d, needMin, short) {
			break
		}
		if w.next == len(w.in.writes) {
			// The epoch check and the rebuild are not measured.
			p0 := time.Now()
			w.endEpoch(ctx, ph)
			if lt != nil {
				if err := lt.end(ctx, w); err != nil {
					ph.fail("metrics: %v", err)
				}
			}
			err := w.restart(ctx, lt)
			ph.pauses = append(ph.pauses, [2]time.Time{p0, time.Now()})
			if err != nil {
				ph.fail("epoch: %v", err)
				break
			}
		}
		w.write(ctx, ph, lt)
	}
	ph.stop = time.Now()
	// The run ends mid-epoch: the materialization must still equal a
	// one-shot re-execution.
	w.endEpoch(ctx, ph)
	if lt != nil {
		if err := lt.end(ctx, w); err != nil {
			ph.fail("metrics: %v", err)
		}
		ph.layer = map[string]float64{}
		lt.finish(ph.ops, ph.layer)
	}
	return ph
}

// restart replaces the program instance with a freshly loaded one.
func (w *live) restart(ctx context.Context, lt *liveTrace) error {
	w.teardown()
	if err := w.setup(ctx); err != nil {
		return err
	}
	if err := w.check(ctx); err != nil {
		return err
	}
	if lt != nil {
		return lt.begin(ctx, w)
	}
	return nil
}

// write sends batch w.next, waits for its delta line and, on every
// liveReadEvery-th write, reads.
func (w *live) write(ctx context.Context, ph *phase, lt *liveTrace) {
	wr := w.in.writes[w.next]
	w.next++
	w.op++
	op := w.op
	var root, cs int32
	if lt != nil {
		root = lt.tr.start(op, 0, "bench", "live.write")
		cs = lt.tr.start(op, root, "client", "http.POST /v1/relations/rows")
	} else {
		op = 0
	}
	body, _ := json.Marshal(map[string][][]int64{"rows": wr.rows})
	t0 := time.Now()
	status, resp, err := w.h.post(ctx, "/v1/relations/"+liveRels[wr.rel]+"/rows", body, op, cs)
	if lt != nil {
		lt.tr.finish(cs)
	}
	ph.attempted++
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d: %s", status, resp)
	}
	var line watchLine
	if err == nil {
		line, err = w.watch.next(5 * time.Second)
	}
	var dg digest
	if err == nil {
		dg, err = decodeRows(line.raw)
	}
	if err == nil {
		var want digest
		for _, t := range wr.newTri {
			want.add(t)
			w.state.add(t)
		}
		w.mat.sum += dg.sum
		w.mat.n += dg.n
		if dg != want {
			err = fmt.Errorf("delta %v, oracle %v", dg, want)
		}
	}
	if err == nil && lt != nil {
		lt.deltaRows += dg.n
		lt.deltaLines++
		err = lt.write(ctx, op, root, wr.rel, wr.rows)
	}
	if lt != nil {
		lt.tr.finish(root)
	}
	if err != nil {
		ph.fail("write %d: %v", w.next-1, err)
		return
	}
	ph.add(classPrimary, true, t0, line.at)
	if wr.read {
		w.read(ctx, ph, lt, wr.readDg)
	}
}

func (w *live) read(ctx context.Context, ph *phase, lt *liveTrace, want digest) {
	w.op++
	op := w.op
	var root, cs int32
	if lt != nil {
		root = lt.tr.start(op, 0, "bench", "live.read")
		cs = lt.tr.start(op, root, "client", "http.POST /v1/query")
	} else {
		op = 0
	}
	t0 := time.Now()
	status, body, err := w.h.post(ctx, "/v1/query", queryBody(liveReadText), op, cs)
	t1 := time.Now()
	if lt != nil {
		lt.tr.finish(cs)
	}
	ph.attempted++
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err == nil {
		var got digest
		if got, err = decodeRows(body); err == nil && got != want {
			err = fmt.Errorf("rows %v, oracle %v", got, want)
		}
	}
	if err == nil && lt != nil {
		lt.bytesOut += len(body)
		lt.responses++
		err = lt.read(ctx, op, root)
	}
	if lt != nil {
		lt.tr.finish(root)
	}
	if err != nil {
		ph.fail("read after write %d: %v", w.next-1, err)
		return
	}
	ph.add(classPlanned, false, t0, t1)
}

// endEpoch checks the watch's materialization and a one-shot re-execution
// of the standing query against the oracle's triangle set.
func (w *live) endEpoch(ctx context.Context, ph *phase) {
	ph.attempted++
	status, body, err := w.h.post(ctx, "/v1/query", queryBody(liveWatchText), 0, 0)
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	var got digest
	if err == nil {
		got, err = decodeRows(body)
	}
	switch {
	case err != nil:
		ph.fail("final re-execution: %v", err)
	case got != w.state:
		ph.fail("final re-execution %v, oracle %v", got, w.state)
	case w.mat != got:
		ph.fail("watch materialization %v, re-execution %v", w.mat, got)
	}
}

// teardown stops the program instance but keeps the loopback listener.
func (w *live) teardown() {
	if w.watch != nil {
		w.watch.close()
		w.watch = nil
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.srv.Shutdown(ctx)
		cancel()
		w.db.Close()
		w.srv, w.db = nil, nil
	}
}

func (w *live) close() {
	w.teardown()
	if w.h != nil {
		w.h.close()
		w.h = nil
	}
}

// watchStream is the client end of one POST /v1/watch: a goroutine reads
// NDJSON lines and stamps each with its arrival time.
type watchStream struct {
	snapshot []byte
	lines    chan watchLine
	cancel   context.CancelFunc
	done     chan struct{}
}

type watchLine struct {
	at  time.Time
	raw []byte
}

func openWatch(ctx context.Context, h *harness, src string) (*watchStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/watch", bytes.NewReader(queryBody(src)))
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	first, err := br.ReadBytes('\n')
	if err != nil || resp.StatusCode != 200 {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d: %s %v", resp.StatusCode, first, err)
	}
	// The writer consumes one line per write before sending the next, so
	// one slot suffices; the spare slots only absorb an unexpected extra
	// line, which then fails the next write's check instead of blocking.
	ws := &watchStream{snapshot: first, lines: make(chan watchLine, 8), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(ws.done)
		defer close(ws.lines)
		defer resp.Body.Close()
		for {
			b, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			select {
			case ws.lines <- watchLine{at: time.Now(), raw: b}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ws, nil
}

// next waits for the next delta line.
func (ws *watchStream) next(timeout time.Duration) (watchLine, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case l, ok := <-ws.lines:
		if !ok {
			return l, fmt.Errorf("watch stream ended")
		}
		return l, nil
	case <-t.C:
		return watchLine{}, fmt.Errorf("no delta line within %v", timeout)
	}
}

func (ws *watchStream) close() {
	ws.cancel()
	<-ws.done
}
