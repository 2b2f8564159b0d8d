package panda

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"panda/internal/bitset"
	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// DB is a long-lived query session in the spirit of database/sql: it owns a
// catalog of named relations (create / insert / CSV ingest / drop) and a
// plan cache, and answers the textual query language through one
// unified path — db.Prepare(src) parses a query into a *Stmt, and
// stmt.QueryContext(ctx) / db.QueryContext(ctx, src) run cache-hit planning
// plus execution, returning a single *Result shape for full, Boolean and
// projection conjunctive queries and disjunctive datalog rules alike. The
// context-free Query/Eval forms delegate with context.Background();
// serving-grade callers should pass a context so queries honor
// cancellation and deadlines, and may set WithParallelism to fan a plan's
// independent rule executions out across goroutines.
//
// A DB is safe for concurrent use by multiple goroutines. The planning
// phase (LP solves, proof sequences, decomposition choice) is cached in the
// session's planner keyed by a renaming-invariant canonical signature, so
// repeated traffic against an unchanged catalog — including queries that
// merely rename variables — pays planning once and executes with zero LP
// solves thereafter. (Mutating a relation a query reads changes its
// derived cardinality constraint and therefore the plan key: the next run
// replans against the new sizes, by design.)
type DB struct {
	mu       sync.RWMutex
	planner  *plan.Planner
	catalog  map[string]*relation.Relation // column i ↔ attribute i
	version  uint64                        // bumped on every catalog mutation
	defaults config
	closed   bool

	// Watch maintainers register a wakeup channel here; every catalog
	// mutation (and Close) pokes each one with a non-blocking send. The
	// registry is guarded by its own mutex so notification never contends
	// with the catalog lock.
	watchMu   sync.Mutex
	watchers  map[uint64]chan struct{}
	nextWatch uint64

	// planLoad records what Open's WithPlanDir warm-load did, so embedders
	// (pandad's boot log) can surface skipped or failed snapshots instead
	// of silently serving cold.
	planLoadStats PlanCacheLoadStats
	planLoadErr   error
}

// config carries the tunables of a DB and of one query run. Open sets
// session defaults and each Query/Eval call may override them.
type config struct {
	mode          PlanMode
	core          core.Options
	parallelism   int
	partitions    int
	plannerCap    int
	planDir       string
	watchQueue    int
	watchFallback bool
}

// Option tunes a DB (at Open) or a single query run (at Prepare / Query /
// Eval), overriding the session defaults.
type Option func(*config)

// WithMode selects the evaluation strategy: ModeAuto (default) picks
// ModeFull for full queries and otherwise compares the exact fhtw and
// subw width certificates, committing the smaller (ties go to the cheaper
// fhtw execution); ModeFull / ModeFhtw / ModeSubw force a strategy.
// Disjunctive rules take no mode: an explicit per-call WithMode on a rule
// fails with ErrNotConjunctive, while a session-wide default set at Open
// is ignored for rules.
func WithMode(m PlanMode) Option { return func(c *config) { c.mode = m } }

// WithTrace records one line per relational operation in Result.Stats.Trace.
func WithTrace(on bool) Option { return func(c *config) { c.core.Trace = on } }

// WithCheckInvariants validates the degree-support invariant and the
// potential inequality before every engine step (slow; exact arithmetic).
func WithCheckInvariants(on bool) Option { return func(c *config) { c.core.CheckInvariants = on } }

// WithBudgetDisabled turns off the 2^OBJ composition budget (the ablation
// switch): outputs stay correct but the runtime guarantee is forfeited.
func WithBudgetDisabled(on bool) Option { return func(c *config) { c.core.DisableBudget = on } }

// WithStageTimings records wall-clock stage timings — prepare-wait,
// per-proof-step-kind engine time, rule fan-out, merge — into
// Result.Timings. Off by default; when off, the execution path makes no
// clock calls. Timings are observability data, not part of the
// deterministic result: they vary run to run even though the rows, Stats
// and trace stay byte-identical.
func WithStageTimings(on bool) Option { return func(c *config) { c.core.StageTimings = on } }

// WithParallelism bounds how many of a plan's independent tasks — per-bag
// (ModeFhtw) and per-transversal (ModeSubw) rule executions, per-partition
// executions of a single rule (see WithPartitions), and the final
// per-decomposition Yannakakis passes of ModeSubw — may run concurrently;
// n ≤ 1 (the default) executes sequentially. The pool size is chosen per
// plan by a cost model (task count × certificate bound × input
// cardinalities), so cheap plans skip the pool. The fan-out is
// deterministic — results are merged in rule-index-then-partition-index
// order, so the output rows, OK answer, Width and Stats are byte-identical
// to a sequential run of the same configuration. Usable both as a session
// default at Open and per call.
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithPartitions splits each rule execution's data into n co-partitioned
// hash partitions: atoms covering the partition key (the most-covered join
// variable) are hash-partitioned on it, the rest are replicated, and the
// rule runs once per partition — inside the WithParallelism pool when one
// is configured. The merged result is exact: output rows, OK answer, width
// and mode match an unpartitioned run, and for a fixed n the run is fully
// deterministic at any parallelism (intermediate Stats may differ between
// different n — a partitioned proof does different, smaller work).
// n = 0 (the default) falls back to per-relation partition hints recorded
// with DB.SetPartitionHint; n = 1 forces unpartitioned execution even when
// hints are present. Usable both as a session default at Open and per call.
func WithPartitions(n int) Option { return func(c *config) { c.partitions = n } }

// WithPlannerCapacity sizes the session's plan-cache LRU (0 selects the
// default capacity). Effective at Open only.
func WithPlannerCapacity(n int) Option { return func(c *config) { c.plannerCap = n } }

// WithPlanDir makes the session's plan cache persistent under dir:
// Open warm-loads the snapshot at <dir>/plans.json when one exists
// (best-effort — a missing, stale-version or corrupted snapshot is skipped,
// never fatal), and SnapshotPlans writes the current cache back atomically.
// Queries whose plans were loaded execute with zero LP solves, which is the
// warm-restart guarantee pandad builds on. Effective at Open only.
func WithPlanDir(dir string) Option { return func(c *config) { c.planDir = dir } }

// Open creates an empty session. Options set session-wide defaults; per-call
// options on Query/Prepare/Eval override them.
func Open(opts ...Option) *DB {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	db := &DB{
		planner:  plan.NewPlanner(cfg.plannerCap),
		catalog:  map[string]*relation.Relation{},
		defaults: cfg,
	}
	if cfg.planDir != "" {
		// Warm-load is best-effort by design: a fresh directory has no
		// snapshot yet, and a bad one must not keep the session from
		// opening. The outcome is recorded for PlanLoadResult so a failed
		// or partially skipped warm start stays observable.
		db.planLoadStats, db.planLoadErr = db.LoadPlanDir()
	}
	return db
}

// PlanLoadResult reports what the WithPlanDir warm-load at Open did: the
// load stats (entries loaded/skipped/duplicated, first rejection reason)
// and the container-level error, if any. Zero values mean no plan
// directory was configured or no snapshot existed yet.
func (db *DB) PlanLoadResult() (PlanCacheLoadStats, error) {
	return db.planLoadStats, db.planLoadErr
}

// Close drops the catalog and marks the session closed; subsequent calls
// return ErrClosed. Closing an already-closed DB is a no-op.
func (db *DB) Close() error {
	db.mu.Lock()
	db.closed = true
	db.catalog = nil
	db.mu.Unlock()
	// Wake every watch maintainer so it observes the closed session and
	// terminates instead of blocking until the next mutation (which will
	// never come).
	db.notifyWatchers()
	return nil
}

// CachedPlans reports how many plans the session's plan cache holds.
func (db *DB) CachedPlans() int { return db.planner.Len() }

// PlannerStats snapshots the session planner's hit/miss/LP counters; a
// query server's ops surface polls this to watch cache effectiveness.
func (db *DB) PlannerStats() PlannerStats { return db.planner.Stats() }

// cfg materializes the effective config for one call.
func (db *DB) cfg(opts []Option) config {
	c := db.defaults
	for _, o := range opts {
		o(&c)
	}
	return c
}

// ---- Catalog ----

// RelationInfo describes one catalog relation.
type RelationInfo struct {
	Name  string
	Arity int
	Size  int
}

// MaxArity bounds catalog relation arities (the bitset variable universe).
const MaxArity = 32

func checkArity(arity int) error {
	if arity < 1 || arity > MaxArity {
		return fmt.Errorf("%w: arity %d outside [1, %d]", ErrArity, arity, MaxArity)
	}
	return nil
}

// CreateRelation adds an empty relation with the given arity to the
// catalog. It fails with ErrRelationExists on a duplicate name.
func (db *DB) CreateRelation(name string, arity int) error {
	if err := checkArity(arity); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, dup := db.catalog[name]; dup {
		return fmt.Errorf("%w: %s", ErrRelationExists, name)
	}
	t := relation.New(name, bitset.Full(arity))
	db.catalog[name] = t
	db.version++
	t.Stamp(db.version)
	db.notifyWatchers()
	return nil
}

// SetPartitionHint records a partition count on a catalog relation: queries
// touching the relation default to executing data-parallel over k hash
// partitions (the largest hint among a query's relations wins; an explicit
// WithPartitions on the session or call overrides hints entirely). k ≤ 1
// clears the hint. The hint is metadata — it never changes query results,
// only how the work is split — but it does bump the relation's version so
// prepared statements re-bind and pick it up.
func (db *DB) SetPartitionHint(name string, k int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	t, ok := db.catalog[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	if k <= 1 {
		k = 0
	}
	if t.PartitionHint() == k {
		return nil
	}
	t.SetPartitionHint(k)
	db.version++
	t.Stamp(db.version)
	db.notifyWatchers()
	return nil
}

// DropRelation removes a relation from the catalog.
func (db *DB) DropRelation(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, ok := db.catalog[name]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	delete(db.catalog, name)
	db.version++
	db.notifyWatchers()
	return nil
}

// Insert adds tuples (in the relation's declared column order) with set
// semantics; duplicates are ignored.
func (db *DB) Insert(name string, rows ...[]Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	t, ok := db.catalog[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	// Validate every row before mutating so the insert is atomic: a
	// partial insert that errored out would otherwise leave the catalog
	// changed without a version bump, and cached statement snapshots
	// would keep serving the pre-insert state.
	arity := t.Attrs().Card()
	for _, row := range rows {
		if len(row) != arity {
			return fmt.Errorf("%w: tuple %v has %d values, relation %s needs %d",
				ErrArity, row, len(row), name, arity)
		}
	}
	for _, row := range rows {
		t.Insert(row)
	}
	db.version++
	t.Stamp(db.version)
	db.notifyWatchers()
	return nil
}

// Relations lists the catalog, sorted by name. It fails with ErrClosed
// after Close so an empty catalog and a closed session stay
// distinguishable.
func (db *DB) Relations() ([]RelationInfo, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	out := make([]RelationInfo, 0, len(db.catalog))
	for name, t := range db.catalog {
		out = append(out, RelationInfo{Name: name, Arity: t.Attrs().Card(), Size: t.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ---- CSV ingest (lifted out of cmd/panda) ----

// LoadCSV reads comma-separated integer tuples into the named relation; it
// is LoadCSVContext under context.Background().
func (db *DB) LoadCSV(name string, r io.Reader) (int, error) {
	return db.LoadCSVContext(context.Background(), name, r)
}

// LoadCSVContext reads comma-separated integer tuples into the named
// relation, creating it (with the first row's arity) when absent. Blank
// lines and lines starting with # are skipped. The load is atomic: on any
// parse or arity error — or a cancelled context — nothing is inserted and
// no relation is created. It returns the number of data rows read (before
// set-semantics deduplication). Cancellation is checked periodically while
// parsing, so a large ingest aborts promptly with ctx.Err().
func (db *DB) LoadCSVContext(ctx context.Context, name string, r io.Reader) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	// Stage and validate every row before touching the catalog.
	var rows [][]Value
	var lines []int
	for ln, line := range strings.Split(string(data), "\n") {
		if ln%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		row := make([]Value, len(parts))
		for k, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("relation %s line %d: %v", name, ln+1, err)
			}
			row[k] = v
		}
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return 0, fmt.Errorf("%w: relation %s line %d: %d fields, want %d",
				ErrArity, name, ln+1, len(row), len(rows[0]))
		}
		rows = append(rows, row)
		lines = append(lines, ln+1)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	t := db.catalog[name]
	if t == nil {
		if len(rows) == 0 {
			return 0, fmt.Errorf("relation %s: no rows to infer an arity from", name)
		}
		if err := checkArity(len(rows[0])); err != nil {
			return 0, fmt.Errorf("relation %s line %d: %w", name, lines[0], err)
		}
		// A fresh relation gets the bulk path: the whole row set is known, so
		// build into preallocated columns instead of growing insert by insert.
		b := relation.NewBuilder(name, bitset.Full(len(rows[0])), len(rows))
		for _, row := range rows {
			b.Add(row)
		}
		t = b.Build()
		db.catalog[name] = t
	} else {
		if len(rows) > 0 && len(rows[0]) != t.Attrs().Card() {
			return 0, fmt.Errorf("%w: relation %s line %d: %d fields, want %d",
				ErrArity, name, lines[0], len(rows[0]), t.Attrs().Card())
		}
		for _, row := range rows {
			t.Insert(row)
		}
	}
	db.version++
	t.Stamp(db.version)
	db.notifyWatchers()
	return len(rows), nil
}

// LoadCSVFile loads one <name>.csv file; the relation name is the base name
// without the extension.
func (db *DB) LoadCSVFile(path string) (string, int, error) {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	f, err := os.Open(path)
	if err != nil {
		return name, 0, err
	}
	defer f.Close()
	n, err := db.LoadCSV(name, f)
	if err != nil {
		return name, n, fmt.Errorf("%s: %w", path, err)
	}
	return name, n, nil
}

// LoadCSVDir loads every *.csv file in dir as a relation named after the
// file. This is the CLI's data-dir convention, available to any embedder.
// Each file loads atomically (see LoadCSV), but a failure mid-directory
// leaves relations from earlier files in the catalog.
func (db *DB) LoadCSVDir(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("panda: no *.csv files in %s", dir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, _, err := db.LoadCSVFile(p); err != nil {
			return err
		}
	}
	return nil
}

// ---- Plan persistence ----

// PlanSnapshotFile is the file name SnapshotPlans writes (and Open's
// warm-load reads) inside the WithPlanDir directory.
const PlanSnapshotFile = "plans.json"

// SavePlans writes the session planner's cached plans to w in the
// versioned panda-plan-cache format. Another session — a restarted server,
// or a replica fed from a planning tier — re-seeds from it with LoadPlans
// and answers the covered queries with zero LP solves.
func (db *DB) SavePlans(w io.Writer) error {
	if db.isClosed() {
		return ErrClosed
	}
	return db.planner.SaveCache(w)
}

// LoadPlans imports a plan-cache snapshot into the session planner.
// Entries with a format-version or digest mismatch — or keys the cache
// already holds — are skipped, never fatal; the stats report the split and
// the first rejection reason.
func (db *DB) LoadPlans(r io.Reader) (PlanCacheLoadStats, error) {
	if db.isClosed() {
		return PlanCacheLoadStats{}, ErrClosed
	}
	return db.planner.LoadCache(r)
}

// SavePlansSince writes only the plans installed after the given cache
// clock — see DB.PlanClock. since = 0 is a full snapshot. The fleet tier
// pulls deltas with this (via GET /v1/plans?since=) so pushes to replicas
// stay proportional to what was planned since the last pull, not to the
// whole cache.
func (db *DB) SavePlansSince(w io.Writer, since uint64) error {
	if db.isClosed() {
		return ErrClosed
	}
	return db.planner.SaveCacheSince(w, since)
}

// PlanClock reports the session planner's cache clock: a monotone count of
// plan installs (fresh builds plus imports; never reset). A consumer that
// remembers the clock from a snapshot envelope and later calls
// SavePlansSince with it receives exactly the plans installed in between.
func (db *DB) PlanClock() uint64 {
	if db.isClosed() {
		return 0
	}
	return db.planner.CacheClock()
}

// ReplanSignatures rebuilds plans from their canonical signature keys — the
// cross-version migration shim. A signature key completely encodes its
// canonical query shape, constraint set and mode, so the dropped entries a
// version-mismatched snapshot reports in SkippedKeys can be re-planned here
// (paying their LP solves once, off the traffic path) instead of lazily at
// query time. Keys already cached are free no-ops. It returns the number of
// plans now live for the given keys and the total LP solves paid; the first
// unparseable or unplannable key aborts with an error (the keys come from
// our own snapshots, so any failure is worth surfacing loudly).
func (db *DB) ReplanSignatures(ctx context.Context, keys []string) (replanned int, lpSolves int, err error) {
	if db.isClosed() {
		return 0, 0, ErrClosed
	}
	for _, key := range keys {
		solves, err := db.planner.ReplanKey(ctx, key)
		if err != nil {
			return replanned, lpSolves, err
		}
		replanned++
		lpSolves += solves
	}
	return replanned, lpSolves, nil
}

// PlanDir returns the plan-persistence directory configured at Open, or ""
// when the session is not persistent.
func (db *DB) PlanDir() string { return db.defaults.planDir }

// LoadPlanDir loads the PlanSnapshotFile snapshot from the configured plan
// directory. A missing snapshot is not an error (the directory simply has
// not been written yet); a session without a plan directory is.
func (db *DB) LoadPlanDir() (PlanCacheLoadStats, error) {
	dir := db.defaults.planDir
	if dir == "" {
		return PlanCacheLoadStats{}, fmt.Errorf("panda: session has no plan directory (use WithPlanDir)")
	}
	f, err := os.Open(filepath.Join(dir, PlanSnapshotFile))
	if err != nil {
		if os.IsNotExist(err) {
			return PlanCacheLoadStats{}, nil
		}
		return PlanCacheLoadStats{}, err
	}
	defer f.Close()
	return db.LoadPlans(f)
}

// SnapshotPlans writes the current plan cache to the configured plan
// directory, atomically: the snapshot lands in a temporary file first and
// is renamed over PlanSnapshotFile, so a crash mid-write can never leave a
// truncated snapshot for the next boot (truncation would be skipped on
// load anyway — the envelope digests see to that — but the previous
// snapshot surviving intact is strictly better).
func (db *DB) SnapshotPlans() error {
	dir := db.defaults.planDir
	if dir == "" {
		return fmt.Errorf("panda: session has no plan directory (use WithPlanDir)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, PlanSnapshotFile+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := db.SavePlans(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, PlanSnapshotFile))
}

// ---- Mutation notification & per-relation ticks ----

// registerWatcher adds a wakeup channel to the notification registry and
// returns its id. The channel has capacity 1 and is poked with non-blocking
// sends, so a slow consumer coalesces bursts instead of backing up mutators.
func (db *DB) registerWatcher() (uint64, chan struct{}) {
	ch := make(chan struct{}, 1)
	db.watchMu.Lock()
	defer db.watchMu.Unlock()
	if db.watchers == nil {
		db.watchers = map[uint64]chan struct{}{}
	}
	db.nextWatch++
	id := db.nextWatch
	db.watchers[id] = ch
	return id, ch
}

// unregisterWatcher removes a wakeup channel from the registry.
func (db *DB) unregisterWatcher(id uint64) {
	db.watchMu.Lock()
	defer db.watchMu.Unlock()
	delete(db.watchers, id)
}

// notifyWatchers pokes every registered watch maintainer. Sends are
// non-blocking: a maintainer that has not yet drained its previous poke
// already knows it must re-examine the catalog.
func (db *DB) notifyWatchers() {
	db.watchMu.Lock()
	defer db.watchMu.Unlock()
	for _, ch := range db.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// schemaTickLocked returns the max per-relation catalog tick over the
// schema's referenced relations (0 when none are present). Callers hold
// db.mu.
func (db *DB) schemaTickLocked(s *Schema) uint64 {
	var max uint64
	for _, a := range s.Atoms {
		if t, ok := db.catalog[a.Name]; ok {
			if tk := t.Tick(); tk > max {
				max = tk
			}
		}
	}
	return max
}

// schemaTick reports the catalog tick a statement over s depends on: the
// max per-relation tick across the relations the schema actually
// references. Mutations to unrelated relations leave it unchanged, so a
// memoized snapshot stays valid across them; any mutation to a referenced
// relation — including a drop+recreate, which stamps a strictly newer tick
// — moves it forward. A referenced relation missing from the catalog fails
// with ErrUnknownRelation.
func (db *DB) schemaTick(s *Schema) (uint64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0, ErrClosed
	}
	for _, a := range s.Atoms {
		if _, ok := db.catalog[a.Name]; !ok {
			return 0, fmt.Errorf("%w: %s", ErrUnknownRelation, a.Name)
		}
	}
	return db.schemaTickLocked(s), nil
}

// bindInstance snapshots the catalog into an Instance for the schema,
// returning the schema tick (max referenced-relation tick) the snapshot
// reflects; the read lock is held for the duration of the copy (an O(arity)
// column snapshot per atom on the common path — see query.BindInstance).
func (db *DB) bindInstance(s *Schema) (*Instance, uint64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, 0, ErrClosed
	}
	ins, err := query.BindInstance(s, func(name string) (*relation.Relation, bool) {
		t, ok := db.catalog[name]
		return t, ok
	})
	if err == nil {
		// Bound relations are fresh copies: carry the catalog partition
		// hints over so hint-driven data-parallel execution sees them.
		for i, a := range s.Atoms {
			if t, ok := db.catalog[a.Name]; ok {
				ins.Relations[i].SetPartitionHint(t.PartitionHint())
			}
		}
	}
	return ins, db.schemaTickLocked(s), err
}

// ---- Query paths ----

// QueryContext parses and runs src against the catalog: Prepare +
// Stmt.QueryContext in one call. The context governs both planning (a
// cache miss abandons its LP solves when ctx expires) and execution (the
// engine checks cancellation between proof steps); a cancelled or expired
// context aborts the query with ctx.Err(). Repeated traffic still hits the
// plan cache — the planner keys on the canonical query signature, not on
// the Stmt identity.
func (db *DB) QueryContext(ctx context.Context, src string, opts ...Option) (*Result, error) {
	stmt, err := db.Prepare(src, opts...)
	if err != nil {
		return nil, err
	}
	return stmt.QueryContext(ctx)
}

// Query is QueryContext under context.Background().
func (db *DB) Query(src string, opts ...Option) (*Result, error) {
	return db.QueryContext(context.Background(), src, opts...)
}

// EvalContext runs a programmatically built conjunctive query against an
// explicit instance under ctx, sharing the session's plan cache. Missing
// atom cardinalities are derived from the instance; dcs may be nil.
func (db *DB) EvalContext(ctx context.Context, q *Query, ins *Instance, dcs []Constraint, opts ...Option) (*Result, error) {
	return db.evalConjunctive(ctx, q, ins, dcs, db.cfg(opts))
}

// Eval is EvalContext under context.Background().
func (db *DB) Eval(q *Query, ins *Instance, dcs []Constraint, opts ...Option) (*Result, error) {
	return db.EvalContext(context.Background(), q, ins, dcs, opts...)
}

// EvalRuleContext runs PANDA on a programmatically built disjunctive rule
// against an explicit instance under ctx, returning the unified Result
// shape (Mode == ModeRule; the model lives in Result.Tables). An explicit
// WithMode in opts fails with ErrNotConjunctive.
func (db *DB) EvalRuleContext(ctx context.Context, p *Rule, ins *Instance, dcs []Constraint, opts ...Option) (*Result, error) {
	if err := rejectExplicitMode(opts); err != nil {
		return nil, err
	}
	return db.evalRule(ctx, p, ins, dcs, db.cfg(opts))
}

// EvalRule is EvalRuleContext under context.Background().
func (db *DB) EvalRule(p *Rule, ins *Instance, dcs []Constraint, opts ...Option) (*Result, error) {
	return db.EvalRuleContext(context.Background(), p, ins, dcs, opts...)
}

func (db *DB) isClosed() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.closed
}

// executor materializes the core executor one call runs with.
func (cfg config) executor() *core.Executor {
	return &core.Executor{Parallelism: cfg.parallelism, Partitions: cfg.partitions, Opt: cfg.core}
}

// prepareConjunctive is the shared planning preamble of the execute
// (evalConjunctive) and dry-run (Stmt.ExplainContext) paths: mode
// validation plus cache-hit planning against the instance's completed
// constraint set. One body keeps an explain from ever diverging from the
// query it describes.
func (db *DB) prepareConjunctive(ctx context.Context, q *Query, ins *Instance, dcs []Constraint, cfg config) (*plan.Plan, error) {
	if cfg.mode == ModeFull && !q.IsFull() {
		return nil, fmt.Errorf("panda: ModeFull needs a full query (free %s)", q.VarLabel(q.Free))
	}
	return db.planner.PrepareContext(ctx, q, core.CompleteConstraints(&q.Schema, ins, dcs), cfg.mode)
}

func (db *DB) evalConjunctive(ctx context.Context, q *Query, ins *Instance, dcs []Constraint, cfg config) (*Result, error) {
	if db.isClosed() {
		return nil, ErrClosed
	}
	var prepStart time.Time
	if cfg.core.StageTimings {
		prepStart = time.Now()
	}
	p, err := db.prepareConjunctive(ctx, q, ins, dcs, cfg)
	if err != nil {
		return nil, err
	}
	var prepWait time.Duration
	if cfg.core.StageTimings {
		prepWait = time.Since(prepStart)
	}
	ex, err := cfg.executor().Execute(ctx, p, ins)
	if err != nil {
		return nil, err
	}
	if ex.Timings != nil {
		ex.Timings.PrepareWait = prepWait
	}
	out := projectFree(ex.Out, p.Free)
	ok := ex.NonEmpty
	if out != nil {
		ok = out.Size() > 0
	}
	var cols []string
	if out != nil {
		for _, v := range p.Free.Vars() {
			cols = append(cols, q.VarLabel(bitset.Of(v)))
		}
	}
	return &Result{
		Rel:       out,
		Columns:   cols,
		OK:        ok,
		Width:     ex.Width,
		Mode:      ex.Mode,
		Tables:    ex.Tables,
		Bound:     ex.Bound,
		Stats:     ex.Stats,
		Signature: SignatureDigest(p.Key),
		Timings:   ex.Timings,
	}, nil
}

func (db *DB) evalRule(ctx context.Context, p *Rule, ins *Instance, dcs []Constraint, cfg config) (*Result, error) {
	if db.isClosed() {
		return nil, ErrClosed
	}
	res, err := cfg.executor().EvalDisjunctive(ctx, p, ins, dcs)
	if err != nil {
		return nil, err
	}
	ok := false
	for _, t := range res.Tables {
		if t.Size() > 0 {
			ok = true
			break
		}
	}
	return &Result{
		OK:      ok,
		Width:   res.Bound,
		Mode:    ModeRule,
		Tables:  res.Tables,
		Bound:   res.Bound,
		Stats:   res.Stats,
		Timings: res.Timings,
	}, nil
}
