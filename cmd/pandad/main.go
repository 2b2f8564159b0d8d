// Command pandad is the long-lived PANDA query server: one process holds a
// panda.DB session (catalog + shared plan cache) and answers HTTP/JSON
// query traffic through internal/server. Repeated queries — including
// variable renamings — are served from the plan cache with zero LP solves;
// GET /metrics exports the planner counters that prove it.
//
// Usage:
//
//	pandad [-addr :8080] [-j N] [-timeout D] [-planner-cap N] [-stmt-cap N]
//	       [-load-dir DIR] [-plan-dir DIR] [-snapshot-every D]
//	       [-shape-cap N] [-slow-query-threshold D] [-pprof]
//
// -j bounds how many independent rule executions run concurrently per query
// (0 picks the number of CPUs); -timeout caps each request's context (a
// query that overruns it is cancelled between proof steps and reported as
// 504); -planner-cap sizes the plan cache; -load-dir bootstraps the catalog
// from a directory of <relation>.csv files, the same convention as
// `panda eval`.
//
// -plan-dir makes the plan cache persistent: boot warm-loads the snapshot
// at DIR/plans.json (so queries planned by a previous run execute with
// zero LP solves — watch panda_planner_lp_solves_saved_total grow while
// panda_planner_lp_solves_total stays flat), and the cache is snapshotted
// back every -snapshot-every (0 disables the timer) plus once during
// graceful shutdown. The same snapshot format ships over GET/PUT
// /v1/plans, so a fleet can also be warmed over HTTP from one planning
// tier.
//
// Observability: GET /metrics exposes latency histograms and per-shape
// series keyed by plan signature digest (cardinality bounded by
// -shape-cap, with an "other" rollup); GET /v1/shapes is the JSON view.
// -slow-query-threshold emits one structured JSON line to stderr for every
// query at or over the threshold; -pprof mounts net/http/pprof under
// /debug/pprof/.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, in-flight
// queries drain, the plan cache is snapshotted, then the session closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"panda"
	"panda/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pandad: ")

	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("j", 1, "parallel rule executions per query (0 = NumCPU)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = none)")
	plannerCap := flag.Int("planner-cap", 0, "plan-cache capacity (0 = default)")
	stmtCap := flag.Int("stmt-cap", 0, "prepared-statement cache capacity (0 = default)")
	loadDir := flag.String("load-dir", "", "bootstrap the catalog from *.csv files in this directory")
	planDir := flag.String("plan-dir", "", "persist the plan cache in this directory (warm-load on boot, snapshot on shutdown)")
	snapEvery := flag.Duration("snapshot-every", 5*time.Minute, "how often to snapshot the plan cache to -plan-dir (0 = only on shutdown)")
	drain := flag.Duration("drain", 15*time.Second, "how long shutdown waits for in-flight queries")
	shapeCap := flag.Int("shape-cap", 0, "per-shape telemetry table capacity (0 = default)")
	slowQuery := flag.Duration("slow-query-threshold", 0, "log queries at least this slow as JSON lines on stderr (0 = off)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	name := flag.String("name", "", "replica identity reported by /v1/info (useful behind pandarouter)")
	flag.Parse()
	if *jobs == 0 {
		*jobs = runtime.NumCPU()
	}

	opts := []panda.Option{panda.WithPlannerCapacity(*plannerCap), panda.WithParallelism(*jobs)}
	if *planDir != "" {
		opts = append(opts, panda.WithPlanDir(*planDir))
	}
	db := panda.Open(opts...)
	defer db.Close()
	if *planDir != "" {
		stats, err := db.PlanLoadResult()
		switch {
		case err != nil:
			log.Printf("plan warm-load from %s failed (serving cold): %v", *planDir, err)
		case stats.Skipped > 0:
			log.Printf("plan warm-load from %s: %v — re-planning %d skipped signatures in the background", *planDir, stats, len(stats.SkippedKeys))
			// The cross-version migration shim: a snapshot written by an
			// older (or newer) binary names the signatures it had to drop,
			// and each key fully encodes its canonical query — so rebuild
			// them off the serving path instead of re-paying their LP
			// solves one traffic-time cache miss at a time. The key list
			// is bounded by the load-stats cap.
			if len(stats.SkippedKeys) > 0 {
				go func(keys []string) {
					n, solves, err := db.ReplanSignatures(context.Background(), keys)
					if err != nil {
						log.Printf("background replan: %d/%d signatures rebuilt (%d LP solves), aborted: %v", n, len(keys), solves, err)
						return
					}
					log.Printf("background replan: %d signatures rebuilt (%d LP solves)", n, solves)
				}(stats.SkippedKeys)
			}
		default:
			log.Printf("plan cache primed with %d plans from %s", stats.Loaded, *planDir)
		}
	}
	if *loadDir != "" {
		if err := db.LoadCSVDir(*loadDir); err != nil {
			log.Fatal(err)
		}
		infos, err := db.Relations()
		if err != nil {
			log.Fatal(err)
		}
		for _, in := range infos {
			log.Printf("loaded %s: arity %d, %d tuples", in.Name, in.Arity, in.Size)
		}
	}

	srv := server.New(server.Config{
		DB:                 db,
		Timeout:            *timeout,
		StmtCacheSize:      *stmtCap,
		ShapeTableSize:     *shapeCap,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       os.Stderr,
		Pprof:              *pprofOn,
		Name:               *name,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *planDir != "" && *snapEvery > 0 {
		go func() {
			tick := time.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := db.SnapshotPlans(); err != nil {
						log.Printf("plan snapshot: %v", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (j=%d, timeout=%v)", *addr, *jobs, *timeout)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down, draining in-flight queries")
	shctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("listener shutdown: %v", err)
	}
	if err := srv.Shutdown(shctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if *planDir != "" {
		if err := db.SnapshotPlans(); err != nil {
			log.Printf("plan snapshot: %v", err)
		} else {
			log.Printf("plan cache snapshotted: %d plans in %s", db.CachedPlans(), *planDir)
		}
	}
}
