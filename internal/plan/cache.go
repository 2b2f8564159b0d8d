package plan

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"panda/internal/query"
)

// Stats is a snapshot of a Planner's cache and planning counters.
type Stats struct {
	Hits       uint64 // Prepare calls answered from the cache (zero LP solves)
	Misses     uint64 // Prepare calls that built a fresh plan
	Evictions  uint64 // plans dropped by the LRU policy
	LPSolves   uint64 // exact simplex solves performed across all builds
	PlansBuilt uint64 // plans constructed (== Misses unless builds failed)
	// Coalesced counts waits on another call's in-flight build of the same
	// signature. The waiter then looks the signature up again, which is
	// counted as usual: a hit once the build installed its plan, a miss
	// when the waiter has to build after all (the builder's context was
	// cancelled, or the plan was evicted in between).
	Coalesced uint64
	// LPSolvesSaved is the cumulative count of exact simplex solves that
	// cache hits avoided: each hit adds the LP cost the entry's original
	// build paid. It is the ops-surface measure of what the cache is worth.
	LPSolvesSaved uint64
}

// DefaultCacheSize is the plan capacity of NewPlanner(0).
const DefaultCacheSize = 128

// maxExactsPerPlan bounds how many exact fingerprints (distinct query
// texts resolving to the same canonical plan) are registered per entry; at
// the cap the oldest fingerprint is evicted, so recently seen texts always
// take the fast path.
const maxExactsPerPlan = 16

// Planner prepares query plans through a concurrency-safe bounded cache
// keyed by the canonical signature of (query shape, free variables,
// constraint set, mode). A hit performs no LP solves and no proof
// construction — the cached canonical plan is rebound to the caller's
// variable space, which is pure bookkeeping. Repeat traffic with
// byte-identical query text takes an exact-fingerprint fast path that also
// skips signature canonicalization (the permutation search of
// Canonicalize), so steady-state hits cost one linear encoding plus the
// rebind.
//
// Eviction is cost-weighted (GreedyDual): each entry carries a priority of
// clock + lpCost, refreshed on every hit, and the entry with the lowest
// priority is evicted when the cache is over capacity, advancing the clock
// to the evicted priority. An expensive plan (many LP solves to rebuild)
// therefore outlives cheaper entries that were touched more recently; when
// build costs are equal the policy degenerates to plain LRU (ties are
// broken toward the least recently used entry).
type Planner struct {
	mu    sync.Mutex
	cap   int
	clock uint64 // GreedyDual aging clock, in LP-solve units
	// seq is the cache clock: a monotone counter bumped once per installed
	// entry (fresh build or import). Delta snapshots (SaveCacheSince) and
	// the fleet push loop compare watermarks against it; unlike the
	// GreedyDual clock it never moves backwards, not even on Reset, so a
	// remote watermark can never be fooled into skipping new entries.
	seq   uint64
	ll    *list.List               // front = most recently used
	index map[string]*list.Element // canonical Key → element; value is *entry
	exact map[string]*exactRef     // Fingerprint → entry + its signature
	// building holds one in-flight build per canonical Key, so concurrent
	// misses on a signature plan it once.
	building map[string]*build
	stats    Stats
}

// build is an in-flight plan construction; done closes when it ends, with
// err set first when it failed.
type build struct {
	done chan struct{}
	err  error
}

type entry struct {
	key    string
	plan   *Plan    // canonical space
	exacts []string // fingerprints registered against this entry
	lpCost uint64   // LP solves the original build paid; credited per hit
	pri    uint64   // eviction priority: clock-at-touch + lpCost
	gen    uint64   // cache-clock value at install; SaveCacheSince filters on it
}

// exactRef remembers the signature a fingerprint resolved to, so later
// identical calls can rebind without re-canonicalizing.
type exactRef struct {
	el  *list.Element
	sig *Signature
}

// NewPlanner returns a Planner whose cache holds up to capacity plans
// (DefaultCacheSize when capacity ≤ 0).
func NewPlanner(capacity int) *Planner {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Planner{
		cap:      capacity,
		ll:       list.New(),
		index:    map[string]*list.Element{},
		exact:    map[string]*exactRef{},
		building: map[string]*build{},
	}
}

// registerExact links a fingerprint to an entry, evicting the entry's
// oldest fingerprint at the cap; caller holds pl.mu.
func (pl *Planner) registerExact(el *list.Element, fp string, sig *Signature) {
	ent := el.Value.(*entry)
	if _, dup := pl.exact[fp]; dup {
		return
	}
	if len(ent.exacts) >= maxExactsPerPlan {
		delete(pl.exact, ent.exacts[0])
		ent.exacts = ent.exacts[1:]
	}
	pl.exact[fp] = &exactRef{el: el, sig: sig}
	ent.exacts = append(ent.exacts, fp)
}

// evictionScanWindow bounds how many entries (from the LRU end) one
// eviction examines, keeping eviction O(1) in the cache capacity. Within
// the window the choice is exact GreedyDual; an expensive entry outside it
// is by definition recently used and not at risk.
const evictionScanWindow = 32

// evictOverCap drops entries beyond capacity, choosing the victim by
// lowest GreedyDual priority (clock-at-touch + LP build cost) rather than
// pure recency; scanning starts at the LRU end so equal-cost entries fall
// back to LRU order. The clock advances to the victim's priority, which is
// what ages the survivors: an untouched entry's head start shrinks with
// every eviction until only its build cost protects it. Caller holds pl.mu.
func (pl *Planner) evictOverCap() {
	for pl.ll.Len() > pl.cap {
		victim := pl.ll.Back()
		for el, n := victim.Prev(), 1; el != nil && n < evictionScanWindow; el, n = el.Prev(), n+1 {
			if el.Value.(*entry).pri < victim.Value.(*entry).pri {
				victim = el
			}
		}
		pl.ll.Remove(victim)
		ent := victim.Value.(*entry)
		delete(pl.index, ent.key)
		for _, fp := range ent.exacts {
			delete(pl.exact, fp)
		}
		if ent.pri > pl.clock {
			pl.clock = ent.pri
		}
		pl.stats.Evictions++
	}
}

// Prepare returns a plan for q under cons, reusing a cached plan when one
// exists for the canonical signature. The returned plan is always in the
// caller's variable space and safe for concurrent Execute calls.
func (pl *Planner) Prepare(q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, error) {
	return pl.PrepareContext(context.Background(), q, cons, mode)
}

// PrepareContext is Prepare honoring ctx: a cache hit never blocks on it,
// but a miss threads the context into the underlying planning phase so its
// LP solves can be abandoned when the caller goes away. Concurrent misses
// on one signature are coalesced: the first call builds, the others wait
// for it (or for their own ctx) and then take the cached plan. A build that
// fails on its builder's cancelled context sends its waiters back to build
// for themselves; any other build error is shared with them.
func (pl *Planner) PrepareContext(ctx context.Context, q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, error) {
	if pl == nil {
		p, _, err := PrepareContext(ctx, q, cons, mode)
		return p, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Validate before encoding so cache keys only ever describe
	// well-formed inputs.
	if err := validateQuery(q, cons); err != nil {
		return nil, err
	}
	mode = ResolveMode(q, mode)
	fp := Fingerprint(q, cons, mode)
	pl.mu.Lock()
	if ref, ok := pl.exact[fp]; ok {
		cached := pl.hit(ref.el)
		pl.mu.Unlock()
		return cached.fromCanonical(ref.sig, &q.Schema, q.Free), nil
	}
	pl.mu.Unlock()

	// First sighting of this query text: canonicalize (outside the lock —
	// the permutation search can be expensive) and look up by signature.
	sig, err := Canonicalize(q, cons, mode)
	if err != nil {
		return nil, err
	}
	var b *build
	for {
		pl.mu.Lock()
		if el, ok := pl.index[sig.Key]; ok {
			pl.registerExact(el, fp, sig)
			cached := pl.hit(el)
			pl.mu.Unlock()
			return cached.fromCanonical(sig, &q.Schema, q.Free), nil
		}
		other, busy := pl.building[sig.Key]
		if !busy {
			b = &build{done: make(chan struct{})}
			pl.building[sig.Key] = b
			pl.stats.Misses++
			pl.mu.Unlock()
			break
		}
		pl.stats.Coalesced++
		pl.mu.Unlock()
		select {
		case <-other.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if err := other.err; err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
	}

	p, bs, err := PrepareContext(ctx, q, cons, mode)
	var canon *Plan
	if err == nil {
		p.Key = sig.Key
		canon = p.toCanonical(sig)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	// Waiters woken here queue on pl.mu, so they find the entry installed.
	b.err = err
	delete(pl.building, sig.Key)
	close(b.done)
	if err != nil {
		return nil, err
	}
	pl.stats.LPSolves += uint64(bs.LPSolves)
	pl.stats.PlansBuilt++
	el, ok := pl.index[sig.Key]
	if ok {
		// A plan-cache import installed the key during the build; adopt
		// its entry.
		pl.ll.MoveToFront(el)
		ent := el.Value.(*entry)
		ent.pri = pl.clock + ent.lpCost
	} else {
		cost := uint64(bs.LPSolves)
		pl.seq++
		el = pl.ll.PushFront(&entry{key: sig.Key, plan: canon, lpCost: cost, pri: pl.clock + cost, gen: pl.seq})
		pl.index[sig.Key] = el
	}
	pl.registerExact(el, fp, sig)
	pl.evictOverCap()
	return p, nil
}

// hit serves a cached entry: it refreshes the entry's recency and eviction
// priority and credits the LP solves the hit saved. Caller holds pl.mu.
func (pl *Planner) hit(el *list.Element) *Plan {
	pl.ll.MoveToFront(el)
	ent := el.Value.(*entry)
	ent.pri = pl.clock + ent.lpCost
	pl.stats.Hits++
	pl.stats.LPSolvesSaved += ent.lpCost
	return ent.plan
}

// Stats returns a snapshot of the planner's counters.
func (pl *Planner) Stats() Stats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.stats
}

// Len reports how many plans the cache currently holds.
func (pl *Planner) Len() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.ll.Len()
}

// Keys returns the cached signature keys, most recently used first; useful
// for tests asserting the LRU eviction order.
func (pl *Planner) Keys() []string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]string, 0, pl.ll.Len())
	for el := pl.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Reset empties the cache and zeroes the counters. The cache clock is NOT
// reset: it only ever moves forward, so delta watermarks held by remote
// pushers stay sound across a Reset (the re-added entries get fresh, higher
// generations and are exported again).
func (pl *Planner) Reset() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.ll.Init()
	pl.index = map[string]*list.Element{}
	pl.exact = map[string]*exactRef{}
	pl.stats = Stats{}
	pl.clock = 0
}

// CacheClock reports the cache clock: the number of entry installs (fresh
// builds plus imports) this planner has performed. SaveCacheSince(w, c)
// with a clock captured earlier exports exactly the entries installed in
// between; the fleet push loop uses it as its per-replica watermark.
func (pl *Planner) CacheClock() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.seq
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d lp-solves=%d lp-saved=%d plans-built=%d",
		s.Hits, s.Misses, s.Evictions, s.LPSolves, s.LPSolvesSaved, s.PlansBuilt)
}
