package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// metrics accumulates the server's own telemetry: per-endpoint request
// counters, fixed-bucket latency histograms (HTTP and query-execution), and
// the per-shape table keyed by plan signature digest. The planner and
// statement-cache counters are scraped live from the session at render
// time. Scrapes never render while holding the lock: write snapshots the
// state under m.mu and releases it before touching the client's io.Writer,
// so a slow scraper cannot stall concurrent observe calls.
type metrics struct {
	mu        sync.Mutex
	requests  map[requestKey]uint64 // endpoint+status → count
	httpDur   map[string]*histogram // endpoint → request latency
	exec      histogram             // successful /v1/query execution latency
	truncated uint64                // responses truncated by max_rows
	shapes    *shapeTable           // top-K per-shape telemetry

	watchSubs    int64  // live /v1/watch subscriptions (gauge)
	watchDeltas  uint64 // delta lines streamed to subscribers
	watchResyncs uint64 // full-state resync lines streamed
}

type requestKey struct {
	endpoint string
	code     int
}

func newMetrics(shapeCap int) *metrics {
	return &metrics{
		requests: map[requestKey]uint64{},
		httpDur:  map[string]*histogram{},
		shapes:   newShapeTable(shapeCap),
	}
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{endpoint, code}]++
	h, ok := m.httpDur[endpoint]
	if !ok {
		h = &histogram{}
		m.httpDur[endpoint] = h
	}
	h.observe(d.Seconds())
}

// observeQuery records one successful query execution against its shape.
func (m *metrics) observeQuery(digest, mode string, rows int, d time.Duration, truncated bool) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.exec.observe(sec)
	if truncated {
		m.truncated++
	}
	m.shapes.observe(digest, mode, uint64(rows), sec)
}

// watchOpened / watchClosed track the live-subscription gauge around a
// watch stream's lifetime.
func (m *metrics) watchOpened() {
	m.mu.Lock()
	m.watchSubs++
	m.mu.Unlock()
}

func (m *metrics) watchClosed() {
	m.mu.Lock()
	m.watchSubs--
	m.mu.Unlock()
}

// watchDelta counts one streamed delta line (and whether it was a resync).
func (m *metrics) watchDelta(resync bool) {
	m.mu.Lock()
	m.watchDeltas++
	if resync {
		m.watchResyncs++
	}
	m.mu.Unlock()
}

// shapeCapacity reports the top-K bound of the shape table; it is fixed at
// construction, so no lock is needed.
func (m *metrics) shapeCapacity() int { return m.shapes.cap }

// snapshotShapes exposes a consistent copy of the shape table for the
// /v1/shapes endpoint.
func (m *metrics) snapshotShapes() (shapes []*shapeStat, other *shapeStat, evicted uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shapes.snapshot()
}

// write renders the full exposition. The Server passes itself in so the
// planner and statement-cache gauges reflect this instant; the metrics
// state proper is deep-copied under the lock and rendered after release.
func (m *metrics) write(w io.Writer, s *Server) {
	// Live session counters: no m.mu involved.
	st := s.db.PlannerStats()
	plans := s.db.CachedPlans()
	entries, stmtHits, stmtMisses := s.stmts.snapshot()

	// Snapshot this collector's state; rendering happens after unlock so a
	// slow scraper never blocks concurrent observe calls.
	m.mu.Lock()
	reqs := make(map[requestKey]uint64, len(m.requests))
	for k, v := range m.requests {
		reqs[k] = v
	}
	httpDur := make(map[string]*histogram, len(m.httpDur))
	for ep, h := range m.httpDur {
		httpDur[ep] = h.clone()
	}
	exec := m.exec.clone()
	truncated := m.truncated
	watchSubs, watchDeltas, watchResyncs := m.watchSubs, m.watchDeltas, m.watchResyncs
	shapes, other, evicted := m.shapes.snapshot()
	m.mu.Unlock()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("panda_planner_hits_total", "Prepare calls answered from the plan cache (zero LP solves).", st.Hits)
	counter("panda_planner_misses_total", "Prepare calls that built a fresh plan.", st.Misses)
	counter("panda_planner_evictions_total", "Plans dropped by the cost-weighted eviction policy.", st.Evictions)
	counter("panda_planner_lp_solves_total", "Exact simplex solves performed across all plan builds.", st.LPSolves)
	counter("panda_planner_lp_solves_saved_total", "Simplex solves avoided by plan-cache hits.", st.LPSolvesSaved)
	counter("panda_planner_plans_built_total", "Plans constructed (misses, plus lost build races).", st.PlansBuilt)
	fmt.Fprintf(w, "# HELP panda_planner_cache_plans Plans currently held by the signature cache (including warm-loaded ones).\n# TYPE panda_planner_cache_plans gauge\npanda_planner_cache_plans %d\n", plans)

	fmt.Fprintf(w, "# HELP panda_stmt_cache_entries Prepared statements currently cached.\n# TYPE panda_stmt_cache_entries gauge\npanda_stmt_cache_entries %d\n", entries)
	counter("panda_stmt_cache_hits_total", "Query requests served by a cached statement.", stmtHits)
	counter("panda_stmt_cache_misses_total", "Query requests that re-prepared their statement.", stmtMisses)

	keys := make([]requestKey, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintf(w, "# HELP panda_http_requests_total Requests served, by endpoint and status code.\n# TYPE panda_http_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "panda_http_requests_total{endpoint=%q,code=%q} %d\n", k.endpoint, strconv.Itoa(k.code), reqs[k])
	}

	eps := make([]string, 0, len(httpDur))
	for ep := range httpDur {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	fmt.Fprintf(w, "# HELP panda_http_request_duration_seconds Request latency, by endpoint.\n# TYPE panda_http_request_duration_seconds histogram\n")
	for _, ep := range eps {
		writeHistogram(w, "panda_http_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep), httpDur[ep])
	}

	fmt.Fprintf(w, "# HELP panda_query_execution_seconds End-to-end execution latency of successful /v1/query requests.\n# TYPE panda_query_execution_seconds histogram\n")
	writeHistogram(w, "panda_query_execution_seconds", "", exec)

	counter("panda_query_rows_truncated_total", "Query responses truncated by a per-request max_rows limit.", truncated)

	fmt.Fprintf(w, "# HELP panda_watch_subscriptions Standing-query streams currently open on /v1/watch.\n# TYPE panda_watch_subscriptions gauge\npanda_watch_subscriptions %d\n", watchSubs)
	counter("panda_watch_deltas_total", "Maintenance delta lines streamed to watch subscribers.", watchDeltas)
	counter("panda_watch_resyncs_total", "Full-state resync lines streamed to watch subscribers (drop/recreate, queue overflow, rule rounds).", watchResyncs)

	// Per-shape series, keyed by plan signature digest with bounded
	// cardinality: at most the top-K live digests plus the "other" rollup.
	if other != nil {
		shapes = append(shapes, other)
	}
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].digest < shapes[j].digest })
	fmt.Fprintf(w, "# HELP panda_query_shape_requests_total Successful queries by plan signature digest and committed mode; evicted shapes roll up into digest=\"other\".\n# TYPE panda_query_shape_requests_total counter\n")
	for _, sh := range shapes {
		modes := make([]string, 0, len(sh.requests))
		for mode := range sh.requests {
			modes = append(modes, mode)
		}
		sort.Strings(modes)
		for _, mode := range modes {
			fmt.Fprintf(w, "panda_query_shape_requests_total{digest=%q,mode=%q} %d\n", sh.digest, mode, sh.requests[mode])
		}
	}
	fmt.Fprintf(w, "# HELP panda_query_shape_rows_total Result rows served by plan signature digest.\n# TYPE panda_query_shape_rows_total counter\n")
	for _, sh := range shapes {
		fmt.Fprintf(w, "panda_query_shape_rows_total{digest=%q} %d\n", sh.digest, sh.rows)
	}
	fmt.Fprintf(w, "# HELP panda_query_shape_execution_seconds Execution latency by plan signature digest.\n# TYPE panda_query_shape_execution_seconds histogram\n")
	for _, sh := range shapes {
		writeHistogram(w, "panda_query_shape_execution_seconds", fmt.Sprintf("digest=%q", sh.digest), &sh.exec)
	}
	counter("panda_query_shape_evictions_total", "Shapes evicted from the top-K table into the \"other\" rollup.", evicted)
}

// writeHistogram renders one histogram series set in the Prometheus text
// format: cumulative buckets ending in +Inf (== _count), then _sum and
// _count. labels is either empty or a `name="value"` list without braces.
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range bucketBounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.count)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.sum, name, labels, h.count)
}
