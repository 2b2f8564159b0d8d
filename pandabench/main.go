// Command pandabench is the repository's end-to-end benchmark: it generates
// a workload from a seed, drives the PANDA engine through the same entry
// points a user would (the panda.DB library and the pandad HTTP server),
// checks every answer against an independent oracle, and prints its
// metrics. See README.md for the workloads and the metrics.
//
//	go run . --workload analytic --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// With --trace 0 it holds the end-to-end metrics; with --trace 1 the
// per-layer metrics of a traced run, and the spans are written to --spans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"panda/internal/relation"
)

// workload is one generated input set and the closed loop that drives it.
type workload interface {
	// setup loads the catalog into a fresh program instance and warms it
	// (plans cached, hot statements prepared); it is what setup_s times.
	setup(ctx context.Context) error
	// check verifies what setup produced against the oracle; untimed.
	check(ctx context.Context) error
	// run drives the loop for at least d (longer, up to 3d, until every
	// percentile has enough samples when needMin is set). A non-nil
	// tracer records spans and turns on the per-layer accounting.
	run(ctx context.Context, d time.Duration, needMin bool, tr *tracer) *phase
	// ingest reports the rows the last setup loaded and the seconds the
	// loading calls took.
	ingest() (rows int, sec float64)
	close()
}

// phase is what one measured loop produced.
type phase struct {
	start, stop time.Time
	// pauses are spans of the loop that are not measured (the live
	// workload's rebuilds between epochs).
	pauses    [][2]time.Time
	ops       int // completed ops: reports, requests, or acknowledged writes
	attempted int // every op tried, including reads and end-of-epoch checks
	failed    int
	failures  []string
	lat       [2][]float64       // latency samples in ms, per class
	layer     map[string]float64 // per-layer figures (traced runs only)
}

// Latency classes: the workload's primary op, and the ops that pass
// through the planner (see README.md for each workload).
const (
	classPrimary = iota
	classPlanned
)

// add records an op of the class that took from start to end; op marks a
// completed op, counted by ops_per_s.
func (p *phase) add(class int, op bool, start, end time.Time) {
	p.lat[class] = append(p.lat[class], ms(end.Sub(start).Seconds()))
	if op {
		p.ops++
	}
}

func (p *phase) count(class int) int { return len(p.lat[class]) }

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// elapsed is the measured wall time: the loop less its pauses.
func (p *phase) elapsed() time.Duration {
	d := p.stop.Sub(p.start)
	for _, ps := range p.pauses {
		d -= ps[1].Sub(ps[0])
	}
	return d
}

func (p *phase) merge(q *phase) {
	p.ops += q.ops
	p.attempted += q.attempted
	p.failed += q.failed
	p.failures = append(p.failures, q.failures...)
	for c := range q.lat {
		p.lat[c] = append(p.lat[c], q.lat[c]...)
	}
}

// needSamples is how many samples per latency class a run collects before
// it may stop: what a p90 needs, minBeyond samples beyond it.
const needSamples = minBeyond * 10

// keepGoing is the closed-loop condition shared by the workloads: run for
// d of measured time, and on, up to 3d or 30 s, whichever is longer, until
// both latency classes have enough samples.
func keepGoing(el, d time.Duration, needMin bool, short bool) bool {
	return el < d || (needMin && short && el < max(3*d, 30*time.Second))
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"planned_p50_ms", "ms"},
	{"planned_p90_ms", "ms"},
	{"heap_peak_mb", "MiB"},
}

// perLayer lists the metrics a --trace 1 run reports. A layer that does
// no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"core.step_ms.submodularity", "ms"},
	{"core.step_ms.monotonicity", "ms"},
	{"core.step_ms.decomposition", "ms"},
	{"core.step_ms.composition", "ms"},
	{"core.rule_fanout_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.execute_ms.triangle", "ms"},
	{"core.execute_ms.cycle4_worst", "ms"},
	{"core.execute_ms.cycle4_random", "ms"},
	{"core.execute_ms.path_rule", "ms"},
	{"core.joins_per_op", "count"},
	{"core.partitions_per_op", "count"},
	{"core.subproblems_per_op", "count"},
	{"core.max_intermediate_rows", "count"},
	{"core.intermediate_over_bound", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"relation.insert_us_per_row", "us"},
	{"relation.ingest_rows_per_s", "1/s"},
	{"relation.interned_values", "count"},
	{"incr.maintain_ms_p50", "ms"},
	{"incr.delta_rows_per_round", "count"},
	{"incr.incremental_ratio", "ratio"},
	{"incr.maintain_over_full", "ratio"},
	{"plan.prepare_ms_p50", "ms"},
	{"plan.lp_solves_per_op", "count"},
	{"plan.hit_ratio", "ratio"},
	{"plan.canonicalize_us_p50", "us"},
	{"query.parse_us_p50", "us"},
	{"facade.prepare_us_p50", "us"},
	{"server.stmt_cache_hit_ratio", "ratio"},
	{"facade.memo_hit_ratio", "ratio"},
	{"facade.query_self_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.response_bytes_per_req", "B"},
	{"trace.ops_per_s_untraced", "1/s"},
	{"trace.ops_per_s_traced", "1/s"},
	{"trace.overhead_ratio", "ratio"},
}

// percentiles are the latency figures of a --trace 0 run, over the
// primary or the planned op class. Each workload prints them under its own
// names (alias, keyed by workload); json marks the figures that are also
// metrics of the result line. The p99 tails are printed only: analytic
// completes too few reports in a run for a p99 with minBeyond samples
// beyond it, and a metric must be reported by every workload.
var percentiles = []struct {
	name  string
	class int
	q     float64
	json  bool
	alias map[string]string
}{
	{"latency_p50_ms", classPrimary, 0.5, true, map[string]string{"serving": "memo_hit_p50_ms", "live": "freshness_p50_ms"}},
	{"latency_p90_ms", classPrimary, 0.9, true, map[string]string{"serving": "memo_hit_p90_ms", "live": "freshness_p90_ms"}},
	{"latency_p99_ms", classPrimary, 0.99, false, map[string]string{"analytic": "latency_p99_ms", "serving": "memo_hit_p99_ms", "live": "freshness_p99_ms"}},
	{"planned_p50_ms", classPlanned, 0.5, true, map[string]string{"analytic": "path_rule_p50_ms", "serving": "executed_p50_ms", "live": "read_p50_ms"}},
	{"planned_p90_ms", classPlanned, 0.9, true, map[string]string{"analytic": "path_rule_p90_ms", "serving": "executed_p90_ms", "live": "read_p90_ms"}},
	{"planned_p99_ms", classPlanned, 0.99, false, map[string]string{"analytic": "path_rule_p99_ms", "serving": "executed_p99_ms", "live": "read_p99_ms"}},
}

// setup_s is the median of setupRepeats set-ups in one run, setupsBefore
// of them before the measured loop and the rest after it.
const (
	setupRepeats = 9
	setupsBefore = 5
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "analytic, serving or live")
	seed := flag.Int64("seed", 1, "input seed; the generated inputs depend on nothing else")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansPath := flag.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pandabench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pandabench:", err)
		return 2
	}
	env := stamp(*name, *seed, *seconds, *trace)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envJSON)
	fmt.Printf("# host_speed_ms %.3f before set-up (fixed integer loop, best of 5; larger is a slower host)\n", hostSpeed())

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	heap := startHeapSampler()

	var setups []float64
	var ingestRows int
	var ingestSec float64
	// setUp replaces the program instance with a freshly set-up one, times
	// the set-up and checks it.
	setUp := func() error {
		w.close()
		// Each set-up starts from a collected heap, so that one set-up's
		// garbage is not billed to the next.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := w.check(ctx); err != nil {
			return fmt.Errorf("setup check: %w", err)
		}
		n, s := w.ingest()
		ingestRows += n
		ingestSec += s
		return nil
	}
	for i := 0; i < setupsBefore; i++ {
		if err := setUp(); err != nil {
			w.close()
			fmt.Fprintln(os.Stderr, "pandabench:", err)
			return 1
		}
	}

	d := time.Duration(*seconds) * time.Second
	var ph, untraced *phase
	var rt0, rt1 rtSnap
	var tr *tracer
	if *trace == 0 {
		ph = w.run(ctx, d, true, nil)
	} else {
		untraced = w.run(ctx, d/2, false, nil)
		tr = newTracer()
		rt0 = readRuntime()
		ph = w.run(ctx, d/2, false, tr)
		rt1 = readRuntime()
	}
	peak := heap.stop()
	fmt.Printf("# host_speed_ms %.3f after the measured loop\n", hostSpeed())
	if *trace == 0 {
		// The rest of the set-ups come after the measured loop, so that
		// setup_s samples the host at both ends of the run.
		for len(setups) < setupRepeats && ctx.Err() == nil {
			if err := setUp(); err != nil {
				w.close()
				fmt.Fprintln(os.Stderr, "pandabench:", err)
				return 1
			}
		}
	}
	w.close()
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "pandabench: run exceeded its time limit")
		return 1
	}

	attempted, failed := ph.attempted, ph.failed
	failures := ph.failures
	if untraced != nil {
		attempted += untraced.attempted
		failed += untraced.failed
		failures = append(failures, untraced.failures...)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "pandabench: failed op:", f)
	}
	if attempted == 0 {
		fmt.Fprintln(os.Stderr, "pandabench: no op attempted")
		return 1
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("error_rate %.6f ratio (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)

	vals := map[string]float64{}
	var defs []metricDef
	if *trace == 0 {
		defs = endToEnd
		vals["setup_s"] = median(setups)
		vals["ops_per_s"] = ratio(float64(ph.ops), ph.elapsed().Seconds())
		vals["heap_peak_mb"] = peak / (1 << 20)
		fmt.Printf("setup_s %.4f s (median of %d set-ups: %s)\n", vals["setup_s"], len(setups), fmtList(setups))
		fmt.Printf("ops_per_s %.2f 1/s (%d ops in %.2f s)\n", vals["ops_per_s"], ph.ops, ph.elapsed().Seconds())
		for _, pc := range percentiles {
			alias := pc.alias[*name]
			if !pc.json && alias == "" {
				continue
			}
			samples := ph.lat[pc.class]
			v, err := percentile(append([]float64(nil), samples...), pc.q)
			if err != nil {
				if pc.json {
					fmt.Fprintf(os.Stderr, "pandabench: %s: %v\n", pc.name, err)
					return 1
				}
				// A tail the run has too few samples for is reported as
				// refused, not guessed.
				fmt.Printf("%s refused (%v)\n", alias, err)
				continue
			}
			if pc.json {
				vals[pc.name] = v
			}
			if alias == "" {
				fmt.Printf("%s %.4f ms (n=%d)\n", pc.name, v, len(samples))
			} else if pc.json {
				fmt.Printf("%s %.4f ms (n=%d; %s)\n", alias, v, len(samples), pc.name)
			} else {
				fmt.Printf("%s %.4f ms (n=%d; printed only)\n", alias, v, len(samples))
			}
		}
		fmt.Printf("heap_peak_mb %.2f MiB\n", vals["heap_peak_mb"])
	} else {
		defs = perLayer
		for k, v := range ph.layer {
			vals[k] = v
		}
		ops := float64(max(ph.ops, 1))
		vals["runtime.alloc_bytes_per_op"] = (rt1.allocBytes - rt0.allocBytes) / ops
		vals["runtime.allocs_per_op"] = (rt1.allocObjs - rt0.allocObjs) / ops
		vals["runtime.gc_cpu_fraction"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
		vals["relation.ingest_rows_per_s"] = ratio(float64(ingestRows), ingestSec)
		vals["relation.interned_values"] = float64(relation.Global.Len())
		vals["trace.ops_per_s_untraced"] = ratio(float64(untraced.ops), untraced.elapsed().Seconds())
		vals["trace.ops_per_s_traced"] = ratio(float64(ph.ops), ph.elapsed().Seconds())
		vals["trace.overhead_ratio"] = 1 - ratio(vals["trace.ops_per_s_traced"], vals["trace.ops_per_s_untraced"])
		spans := tr.snapshot()
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		}
		if err := saveSpans(path, env, spans); err != nil {
			fmt.Fprintln(os.Stderr, "pandabench: spans:", err)
			return 1
		}
		fmt.Printf("spans %d written to %s\n", len(spans), path)
		fmt.Printf("tracing overhead %.1f%% (ops_per_s %.2f untraced, %.2f traced)\n",
			100*vals["trace.overhead_ratio"], vals["trace.ops_per_s_untraced"], vals["trace.ops_per_s_traced"])
		for _, m := range defs {
			fmt.Printf("%s %.6g %s\n", m.name, vals[m.name], m.unit)
		}
	}

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]mv{}}
	for _, m := range defs {
		out.Metrics[m.name] = mv{vals[m.name], m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pandabench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "analytic":
		return newAnalytic(seed)
	case "serving":
		return newServing(seed)
	case "live":
		return newLive(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want analytic, serving or live)", name)
}

func saveSpans(path string, env map[string]any, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, env, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- runtime ----

type rtSnap struct{ allocBytes, allocObjs, gcCPU, totalCPU float64 }

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{f(0), f(1), f(2), f(3)}
}

// heapSampler records the live heap the runtime measured at the end of
// each GC cycle, from a finalizer that re-arms itself every cycle (no
// polling goroutine competing with the workload). heap_peak_mb is the 90th
// percentile of those values: a peak that the phase one unlucky GC
// happens to catch cannot move.
type heapSampler struct {
	mu      sync.Mutex
	live    []float64
	stopped bool
}

type gcSentinel struct{ h *heapSampler }

func startHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&gcSentinel{h}, func(s *gcSentinel) { s.h.onGC() })
}

func (h *heapSampler) onGC() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return
	}
	h.live = append(h.live, float64(s[0].Value.Uint64()))
	h.arm()
}

// stop ends sampling and returns the heap figure in bytes.
func (h *heapSampler) stop() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	if len(h.live) == 0 {
		return 0
	}
	live := append([]float64(nil), h.live...)
	sort.Float64s(live)
	return live[int(math.Ceil(0.9*float64(len(live))))-1]
}

// ---- environment stamp ----

// stamp records what a result depends on besides the code: core count,
// GOMAXPROCS, toolchain, CPU, seed, and which source tree was measured.
func stamp(name string, seed int64, seconds, trace int) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
