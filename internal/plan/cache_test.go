package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPlannerHitSkipsLP: the second Prepare of an identical query must be a
// cache hit with zero additional LP solves — the acceptance criterion of
// the prepared-query subsystem.
func TestPlannerHitSkipsLP(t *testing.T) {
	pl := NewPlanner(8)
	q, cons := cycleQuery(4, nil, nil, 100)
	if _, err := pl.Prepare(q, cons, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.LPSolves == 0 {
		t.Fatalf("after first Prepare: %v", st)
	}
	solved := st.LPSolves
	p2, err := pl.Prepare(q, cons, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	st = pl.Stats()
	if st.Hits != 1 {
		t.Fatalf("second Prepare was not a hit: %v", st)
	}
	if st.LPSolves != solved {
		t.Fatalf("cache hit ran %d LP solves", st.LPSolves-solved)
	}
	if p2 == nil || p2.Width == nil || len(p2.Rules) == 0 {
		t.Fatal("hit returned a hollow plan")
	}
}

// TestLPSolvesSavedAccounting: every hit credits the LP cost the entry's
// original build paid, so a server's ops surface can read off what the
// cache is worth in solver work.
func TestLPSolvesSavedAccounting(t *testing.T) {
	pl := NewPlanner(8)
	q, cons := cycleQuery(4, nil, nil, 100)
	if _, err := pl.Prepare(q, cons, ModeSubw); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.LPSolvesSaved != 0 {
		t.Fatalf("build credited savings: %v", st)
	}
	cost := st.LPSolves
	if cost == 0 {
		t.Fatal("build reported zero LP solves")
	}
	const hits = 3
	for i := 0; i < hits; i++ {
		if _, err := pl.Prepare(q, cons, ModeSubw); err != nil {
			t.Fatal(err)
		}
	}
	st = pl.Stats()
	if st.Hits != hits || st.LPSolvesSaved != hits*cost {
		t.Fatalf("after %d hits: saved %d, want %d (%v)", hits, st.LPSolvesSaved, hits*cost, st)
	}
}

// TestPlannerRenamedHit: a variable-renamed query must hit the cache and
// come back rebound to its own variable space.
func TestPlannerRenamedHit(t *testing.T) {
	pl := NewPlanner(8)
	q1, c1 := cycleQuery(4, nil, nil, 100)
	p1, err := pl.Prepare(q1, c1, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	q2, c2 := cycleQuery(4, []int{2, 0, 3, 1}, []int{1, 3, 0, 2}, 100)
	p2, err := pl.Prepare(q2, c2, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("renamed query missed: %v", st)
	}
	if p1.Width.Cmp(p2.Width) != 0 {
		t.Fatalf("widths diverge: %v vs %v", p1.Width, p2.Width)
	}
	// The rebound plan must live in q2's space: every rule target and bag
	// is a union of q2 atom variable sets, and guards index q2's atoms.
	for _, r := range p2.Rules {
		for _, b := range r.Targets {
			covered := b
			for _, a := range q2.Atoms {
				covered = covered.Minus(a.Vars)
			}
			if covered != 0 {
				t.Fatalf("target %v outside q2's atom universe", b)
			}
		}
	}
	for _, c := range p2.Cons {
		if c.Guard < 0 || c.Guard >= len(q2.Atoms) || !c.Y.SubsetOf(q2.Atoms[c.Guard].Vars) {
			t.Fatalf("rebound constraint %+v has an invalid guard", c)
		}
	}
	if len(p2.Schema.Atoms) != len(q2.Atoms) {
		t.Fatal("rebound schema lost atoms")
	}
	for i, a := range p2.Schema.Atoms {
		if a.Name != q2.Atoms[i].Name || a.Vars != q2.Atoms[i].Vars {
			t.Fatalf("rebound schema atom %d is %+v, want %+v", i, a, q2.Atoms[i])
		}
	}
}

// TestPlannerExactFastPath: first sighting of a reordered query goes
// through canonicalization and hits the shared canonical entry; a repeat of
// the same text takes the exact fast path. Both rebinds must be valid in
// the caller's space.
func TestPlannerExactFastPath(t *testing.T) {
	pl := NewPlanner(8)
	q1, c1 := cycleQuery(4, nil, nil, 100)
	q2, c2 := cycleQuery(4, nil, []int{2, 0, 3, 1}, 100)
	if _, err := pl.Prepare(q1, c1, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	check := func(p *Plan) {
		t.Helper()
		for _, c := range p.Cons {
			if c.Guard < 0 || c.Guard >= len(q2.Atoms) || !c.Y.SubsetOf(q2.Atoms[c.Guard].Vars) {
				t.Fatalf("rebound constraint %+v invalid for q2", c)
			}
		}
	}
	p2a, err := pl.Prepare(q2, c2, ModeFhtw) // canonical-path hit
	if err != nil {
		t.Fatal(err)
	}
	check(p2a)
	p2b, err := pl.Prepare(q2, c2, ModeFhtw) // exact fast-path hit
	if err != nil {
		t.Fatal(err)
	}
	check(p2b)
	st := pl.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("expected 2 hits / 1 miss, got %v", st)
	}
}

// TestPlannerCostWeightedEviction: eviction weighs the recorded LP build
// cost, so an expensive plan outlives cheaper entries prepared after it —
// the case pure LRU gets wrong for a server whose hot set exceeds the cap.
func TestPlannerCostWeightedEviction(t *testing.T) {
	pl := NewPlanner(2)
	qE, cE := cycleQuery(4, nil, nil, 100)
	if _, err := pl.Prepare(qE, cE, ModeSubw); err != nil {
		t.Fatal(err)
	}
	costE := pl.Stats().LPSolves
	qA, cA := cycleQuery(3, nil, nil, 4)
	if _, err := pl.Prepare(qA, cA, ModeFull); err != nil {
		t.Fatal(err)
	}
	costA := pl.Stats().LPSolves - costE
	if costE <= costA {
		t.Fatalf("fixture assumption broken: subw 4-cycle cost %d not above full 3-cycle cost %d", costE, costA)
	}
	// A third (cheap) plan forces an eviction. The expensive subw plan is
	// the least recently used entry, but the cheap triangle plan must be
	// the victim.
	qB, cB := cycleQuery(3, nil, nil, 8)
	if _, err := pl.Prepare(qB, cB, ModeFull); err != nil {
		t.Fatal(err)
	}
	if ev := pl.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	misses := pl.Stats().Misses
	if _, err := pl.Prepare(qE, cE, ModeSubw); err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats(); got.Misses != misses {
		t.Fatalf("expensive plan was evicted despite its cost: %v", got)
	}
	if _, err := pl.Prepare(qA, cA, ModeFull); err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats().Misses; got != misses+1 {
		t.Fatalf("cheap plan should have been the victim (misses %d → %d)", misses, got)
	}
}

// TestPlannerLRUEviction: with equal build costs the cost-weighted policy
// degenerates to plain LRU — the least recently used plan is evicted first,
// and touching a plan refreshes it.
func TestPlannerLRUEviction(t *testing.T) {
	pl := NewPlanner(2)
	mk := func(card int64) (string, error) {
		q, cons := cycleQuery(3, nil, nil, card)
		p, err := pl.Prepare(q, cons, ModeFull)
		if err != nil {
			return "", err
		}
		return p.Key, nil
	}
	kA, err := mk(4)
	if err != nil {
		t.Fatal(err)
	}
	kB, err := mk(8)
	if err != nil {
		t.Fatal(err)
	}
	// Touch A so B becomes least recently used.
	if _, err := mk(4); err != nil {
		t.Fatal(err)
	}
	kC, err := mk(16)
	if err != nil {
		t.Fatal(err)
	}
	keys := pl.Keys()
	if len(keys) != 2 || keys[0] != kC || keys[1] != kA {
		t.Fatalf("LRU order %v, want [C=%s A=%s]", keys, kC, kA)
	}
	st := pl.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// B was evicted: preparing it again must miss.
	misses := st.Misses
	if _, err := mk(8); err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats().Misses; got != misses+1 {
		t.Fatalf("evicted plan did not miss (misses %d → %d)", misses, got)
	}
	if pl.Len() != 2 {
		t.Fatalf("cache holds %d plans, want 2", pl.Len())
	}
	_ = kB
}

// TestPlannerConcurrent hammers one planner from many goroutines mixing
// repeated and distinct queries; run with -race.
func TestPlannerConcurrent(t *testing.T) {
	pl := NewPlanner(4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				card := int64(4 << uint(i%3)) // three distinct signatures
				q, cons := cycleQuery(4, nil, nil, card)
				p, err := pl.Prepare(q, cons, ModeFhtw)
				if err != nil {
					errs <- err
					return
				}
				if p.Width == nil || len(p.Rules) == 0 {
					errs <- fmt.Errorf("goroutine %d got hollow plan", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Hits+st.Misses != 64 {
		t.Fatalf("hits+misses = %d, want 64 (%v)", st.Hits+st.Misses, st)
	}
	if st.Misses < 3 {
		t.Fatalf("expected at least 3 misses for 3 signatures: %v", st)
	}
}

// TestPlannerReset clears state.
func TestPlannerReset(t *testing.T) {
	pl := NewPlanner(2)
	q, cons := cycleQuery(3, nil, nil, 4)
	if _, err := pl.Prepare(q, cons, ModeFull); err != nil {
		t.Fatal(err)
	}
	pl.Reset()
	if pl.Len() != 0 || pl.Stats() != (Stats{}) {
		t.Fatal("Reset left state behind")
	}
}

// TestPlannerCoalescesConcurrentMisses: concurrent first sightings of one
// signature build a single plan; every other call is served that plan as a
// hit, whether it waited on the build or arrived after it.
func TestPlannerCoalescesConcurrentMisses(t *testing.T) {
	pl := NewPlanner(4)
	q, cons := cycleQuery(4, nil, nil, 16)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := pl.Prepare(q, cons, ModeSubw); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Misses != 1 || st.PlansBuilt != 1 || st.Hits != 7 {
		t.Fatalf("8 concurrent sightings should build once and hit 7 times: %v (coalesced %d)", st, st.Coalesced)
	}
}

// TestPlannerCoalescedWaitersSurviveCancelledBuilder: a call waiting on an
// in-flight build does not inherit the builder's context error — it builds
// the plan itself — while any other build error is shared, and a waiter
// whose own context ends stops waiting with that context's error.
func TestPlannerCoalescedWaitersSurviveCancelledBuilder(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 16)
	sig, err := Canonicalize(q, cons, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	// waitOn parks a call behind a simulated in-flight build of the
	// signature, ends that build with buildErr once the call is waiting,
	// and returns the call's outcome.
	waitOn := func(pl *Planner, ctx context.Context, buildErr error, cancel func()) (*Plan, error) {
		b := &build{done: make(chan struct{})}
		pl.mu.Lock()
		pl.building[sig.Key] = b
		pl.mu.Unlock()
		type outcome struct {
			p   *Plan
			err error
		}
		out := make(chan outcome, 1)
		go func() {
			p, err := pl.PrepareContext(ctx, q, cons, ModeFhtw)
			out <- outcome{p, err}
		}()
		for pl.Stats().Coalesced == 0 {
			time.Sleep(time.Millisecond)
		}
		if cancel != nil {
			cancel()
		} else {
			pl.mu.Lock()
			b.err = buildErr
			delete(pl.building, sig.Key)
			close(b.done)
			pl.mu.Unlock()
		}
		o := <-out
		return o.p, o.err
	}

	pl := NewPlanner(4)
	p, err := waitOn(pl, context.Background(), fmt.Errorf("plan: build: %w", context.Canceled), nil)
	if err != nil || p == nil || p.Width == nil {
		t.Fatalf("waiter inherited the builder's cancellation: plan %v, err %v", p, err)
	}
	if st := pl.Stats(); st.Coalesced != 1 || st.Misses != 1 || st.PlansBuilt != 1 || st.Hits != 0 {
		t.Fatalf("waiter should have built after the cancelled build: %v (coalesced %d)", st, st.Coalesced)
	}

	pl = NewPlanner(4)
	boom := errors.New("boom")
	if _, err := waitOn(pl, context.Background(), boom, nil); !errors.Is(err, boom) {
		t.Fatalf("waiter did not share the build error: %v", err)
	}
	if st := pl.Stats(); st.Misses != 0 || st.PlansBuilt != 0 {
		t.Fatalf("waiter rebuilt after a shared build error: %v", st)
	}

	pl = NewPlanner(4)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := waitOn(pl, ctx, nil, cancel); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v, want context.Canceled", err)
	}
}
