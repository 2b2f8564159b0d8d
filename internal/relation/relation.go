// Package relation implements the in-memory relational substrate used by
// PANDA and the baseline evaluators: set-semantics relations over integer
// domains with natural join, projection, semijoin, union, degree statistics
// (Definition 2.10) and the heavy/light degree-bucket partitioning of
// Lemma 6.1.
//
// Storage is interned and columnar: every Value is mapped once to a dense
// uint32 id (see Interner) and a relation holds one []uint32 vector per
// attribute, so equality, dedup and index builds operate on machine words
// and iteration walks contiguous memory. Values are decoded back only at
// the read boundary (Cursor, All, Rows, SortedRows).
package relation

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"panda/internal/bitset"
)

// Value is a single attribute value.
type Value = int64

// Relation is a finite relation with set semantics. Attribute order inside
// tuples follows the sorted order of the schema's variable indices.
//
// Writes (Insert and friends) require external synchronization, as before;
// concurrent reads — including the internally-memoized index builds — are
// safe.
type Relation struct {
	Name  string
	attrs bitset.Set
	cols  []int // sorted variable ids; tuple positions follow this order
	in    *Interner

	data  [][]uint32 // one id vector per column, each of length nrows
	nrows int
	// seen dedups rows: a flat table of row indices keyed by the FNV hash
	// of each row's id-tuple, candidates verified by column comparison (see
	// rowSet). When present it indexes every row. Built lazily: operators
	// whose output is unique by construction (Join, Semijoin, Partition,
	// Concat, degree buckets, snapshots) skip it until the first membership
	// probe or dedup insert.
	seen rowSet

	marks []tickMark
	// mut counts accepted inserts; derived-structure memos are keyed by it
	// (a strictly monotone per-relation tick, never fooled by equal row
	// counts the way a cardinality check could be).
	mut uint64

	// partHint is the partition count recorded for this relation (catalog
	// entries carry it so the executor can pick a data-parallel fan-out
	// without an explicit per-query option); 0 means unset.
	partHint int

	// scratch is reused by Insert to intern into; writes are externally
	// synchronized so a single buffer suffices.
	scratch []uint32

	// memo caches derived read-only structures — hash indexes (the build
	// side of Join and Semijoin) and hash partitions — keyed by attribute
	// set and invalidated by the mutation tick, so a relation that is
	// joined, semijoin-reduced or partitioned repeatedly (standing-query
	// rounds, per-partition rule executions) hashes its rows once instead
	// of once per call. Guarded by its own mutex: executions share instance
	// relations across worker goroutines.
	memo struct {
		sync.Mutex
		indexes map[bitset.Set]*memoIndex
		parts   map[partMemoKey]*memoParts
	}
}

// memoIndex caches index(x) at a given mutation tick.
type memoIndex struct {
	mut uint64
	idx map[uint64][]int32
}

// partMemoKey identifies a cached hash partitioning.
type partMemoKey struct {
	k  int
	on bitset.Set
}

// memoParts caches Partition(k, on) at a given mutation tick.
type memoParts struct {
	mut   uint64
	parts []*Relation
}

// tickMark records that the relation held exactly `rows` tuples when the
// catalog tick `tick` was stamped. Because row storage is append-only, the
// prefix [:rows] is immutable and RowsSince can answer "what arrived after
// tick T" by decoding the suffix.
type tickMark struct {
	tick uint64
	rows int
}

// FNV-1a constants; rows hash by folding 32-bit ids through the FNV-1a
// recurrence (word-at-a-time — collisions are resolved by id comparison).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// New returns an empty relation with the given schema, decoding through the
// process-wide intern table.
func New(name string, attrs bitset.Set) *Relation {
	cols := attrs.Vars()
	return &Relation{
		Name:  name,
		attrs: attrs,
		cols:  cols,
		in:    Global,
		data:  make([][]uint32, len(cols)),
	}
}

// newSized is New with every column preallocated for rows rows.
func newSized(name string, attrs bitset.Set, rows int) *Relation {
	r := New(name, attrs)
	for c := range r.data {
		r.data[c] = make([]uint32, 0, rows)
	}
	return r
}

// Attrs returns the relation's schema.
func (r *Relation) Attrs() bitset.Set { return r.attrs }

// Cols returns the tuple layout: variable ids in tuple-position order.
func (r *Relation) Cols() []int { return r.cols }

// Size returns the number of distinct tuples.
func (r *Relation) Size() int { return r.nrows }

// Interner returns the intern table this relation decodes through.
func (r *Relation) Interner() *Interner { return r.in }

// Column returns the id vector of tuple position i; callers must treat it
// as read-only. Ids decode through Interner().ValueOf.
func (r *Relation) Column(i int) []uint32 { return r.data[i][:r.nrows:r.nrows] }

// SetPartitionHint records the partition count for this relation (0 clears
// it). The executor uses the largest hint across a query's relations as the
// data-parallel fan-out when no explicit partition option is given.
func (r *Relation) SetPartitionHint(k int) {
	if k < 0 {
		k = 0
	}
	r.partHint = k
}

// PartitionHint returns the recorded partition count (0 when unset).
func (r *Relation) PartitionHint() int { return r.partHint }

// hashIDs folds an id-tuple through FNV-1a.
func hashIDs(ids []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h ^= uint64(id)
		h *= fnvPrime64
	}
	return h
}

// rowHash hashes row i over all columns (the dedup key).
func (r *Relation) rowHash(i int) uint64 {
	h := uint64(fnvOffset64)
	for c := range r.data {
		h ^= uint64(r.data[c][i])
		h *= fnvPrime64
	}
	return h
}

// hashRowAt hashes row i over the given tuple positions.
func (r *Relation) hashRowAt(i int, pos []int) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		h ^= uint64(r.data[p][i])
		h *= fnvPrime64
	}
	return h
}

// rowMatchIDs reports whether row i equals the id-tuple.
func (r *Relation) rowMatchIDs(i int, ids []uint32) bool {
	for c := range r.data {
		if r.data[c][i] != ids[c] {
			return false
		}
	}
	return true
}

// rowsMatchAt reports whether rows i and j agree on the given positions.
func (r *Relation) rowsMatchAt(i, j int, pos []int) bool {
	for _, p := range pos {
		if r.data[p][i] != r.data[p][j] {
			return false
		}
	}
	return true
}

// rowIDs copies row i's ids into buf.
func (r *Relation) rowIDs(i int, buf []uint32) []uint32 {
	buf = buf[:len(r.data)]
	for c := range r.data {
		buf[c] = r.data[c][i]
	}
	return buf
}

// decodeInto decodes row i into buf (which must have the relation's arity).
func (r *Relation) decodeInto(buf []Value, i int) {
	for c := range r.data {
		buf[c] = r.in.ValueOf(r.data[c][i])
	}
}

// ensureSeen builds the dedup table from the stored rows if it is absent
// and makes room for extra more rows.
func (r *Relation) ensureSeen(extra int) {
	want := r.nrows + extra
	if !r.seen.present() {
		r.seen = newRowSet(want)
		for i := 0; i < r.nrows; i++ {
			r.seen.put(r.rowHash(i), i)
		}
		return
	}
	if !r.seen.fits(want) {
		r.seen.resize(want, r.rowHash)
	}
}

// appendIDs appends a row unconditionally, bumping the mutation tick.
func (r *Relation) appendIDs(ids []uint32) {
	for c := range r.data {
		r.data[c] = append(r.data[c], ids[c])
	}
	r.nrows++
	r.mut++
}

// appendUnique appends a row the caller guarantees is not present.
func (r *Relation) appendUnique(ids []uint32) {
	if r.seen.present() {
		r.ensureSeen(1)
		r.seen.put(hashIDs(ids), r.nrows)
	}
	r.appendIDs(ids)
}

// insertIDs appends a row unless present; reports whether it was new.
func (r *Relation) insertIDs(ids []uint32) bool {
	r.ensureSeen(1)
	s := &r.seen
	for i := s.home(hashIDs(ids)); ; i = s.next(i) {
		v := s.slots[i]
		if v == 0 {
			s.slots[i] = int32(r.nrows + 1)
			r.appendIDs(ids)
			return true
		}
		if r.rowMatchIDs(int(v-1), ids) {
			return false
		}
	}
}

// containsIDs reports whether the id-tuple is present.
func (r *Relation) containsIDs(ids []uint32) bool {
	r.ensureSeen(0)
	s := &r.seen
	for i := s.home(hashIDs(ids)); ; i = s.next(i) {
		v := s.slots[i]
		if v == 0 {
			return false
		}
		if r.rowMatchIDs(int(v-1), ids) {
			return true
		}
	}
}

// Insert adds a tuple given in column order (sorted variable ids);
// duplicates are ignored. The slice is copied.
func (r *Relation) Insert(t []Value) {
	if len(t) != len(r.cols) {
		panic(fmt.Sprintf("relation %s: tuple arity %d, want %d", r.Name, len(t), len(r.cols)))
	}
	if cap(r.scratch) < len(t) {
		r.scratch = make([]uint32, len(t))
	}
	ids := r.scratch[:len(t)]
	for i, v := range t {
		ids[i] = r.in.Intern(v)
	}
	r.insertIDs(ids)
}

// InsertIDs adds a row of already-interned ids (from this relation's intern
// table) in column order; duplicates are ignored. The slice is copied.
func (r *Relation) InsertIDs(ids []uint32) {
	if len(ids) != len(r.cols) {
		panic(fmt.Sprintf("relation %s: tuple arity %d, want %d", r.Name, len(ids), len(r.cols)))
	}
	r.insertIDs(ids)
}

// InsertMap adds a tuple given as a variable→value assignment covering the
// schema.
func (r *Relation) InsertMap(m map[int]Value) {
	t := make([]Value, len(r.cols))
	for i, c := range r.cols {
		v, ok := m[c]
		if !ok {
			panic(fmt.Sprintf("relation %s: missing attribute %d", r.Name, c))
		}
		t[i] = v
	}
	r.Insert(t)
}

// InsertAll merges every row of s (same schema, same intern table) into r.
func (r *Relation) InsertAll(s *Relation) {
	if r.attrs != s.attrs {
		panic(fmt.Sprintf("InsertAll schema mismatch: %v vs %v", r.attrs, s.attrs))
	}
	sameInterner(r, s)
	// Room for every row of s up front: one table resize and one column
	// growth instead of a doubling cascade.
	r.ensureSeen(s.nrows)
	for c := range r.data {
		r.data[c] = slices.Grow(r.data[c], s.nrows)
	}
	buf := make([]uint32, len(r.cols))
	for i := 0; i < s.nrows; i++ {
		r.insertIDs(s.rowIDs(i, buf))
	}
}

// Stamp records that the relation's current contents correspond to the
// monotone catalog tick. Ticks must be stamped in increasing order. A
// re-stamp at an unchanged row count is a no-op: RowsSince for any tick at
// or past the existing mark already answers "nothing new", and keeping the
// older tick keeps Tick() stable across content-preserving mutations
// (duplicate-only inserts), so statement memoization survives them.
func (r *Relation) Stamp(tick uint64) {
	if n := len(r.marks); n > 0 && r.marks[n-1].rows == r.nrows {
		return
	}
	r.marks = append(r.marks, tickMark{tick: tick, rows: r.nrows})
}

// Tick returns the latest stamped catalog tick (0 if never stamped).
func (r *Relation) Tick() uint64 {
	if n := len(r.marks); n > 0 {
		return r.marks[n-1].tick
	}
	return 0
}

// RowsSince returns the tuples inserted strictly after catalog tick `tick`
// was stamped: everything past the newest mark with mark.tick ≤ tick, or
// all rows when no such mark exists. The result is a freshly decoded copy —
// it stays valid, and stops growing, even as the relation keeps growing.
func (r *Relation) RowsSince(tick uint64) [][]Value {
	// Binary search: first mark with mark.tick > tick.
	i := sort.Search(len(r.marks), func(i int) bool { return r.marks[i].tick > tick })
	from := 0
	if i > 0 {
		from = r.marks[i-1].rows
	}
	return r.decodeRange(from, r.nrows)
}

// Contains reports whether the tuple (in column order) is present.
func (r *Relation) Contains(t []Value) bool {
	if len(t) != len(r.cols) {
		return false
	}
	ids := make([]uint32, len(t))
	for i, v := range t {
		id, ok := r.in.Lookup(v)
		if !ok {
			return false // value never interned ⇒ in no relation
		}
		ids[i] = id
	}
	return r.containsIDs(ids)
}

// positions returns the tuple positions of the attributes in x (which must
// be a subset of the schema), in sorted-variable order.
func (r *Relation) positions(x bitset.Set) []int {
	if !x.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation %s: %v not in schema %v", r.Name, x, r.attrs))
	}
	pos := make([]int, 0, x.Card())
	for i, c := range r.cols {
		if x.Contains(c) {
			pos = append(pos, i)
		}
	}
	return pos
}

// Project returns Π_X(r) for X ⊆ schema. Projecting onto the whole schema
// returns a Snapshot: r is already a set, so there is nothing to dedup.
func (r *Relation) Project(x bitset.Set) *Relation {
	name := fmt.Sprintf("Π%v(%s)", x, r.Name)
	if x == r.attrs {
		return r.Snapshot(name)
	}
	out := New(name, x)
	pos := r.positions(x)
	out.ensureSeen(0)
	buf := make([]uint32, len(pos))
	for i := 0; i < r.nrows; i++ {
		for j, p := range pos {
			buf[j] = r.data[p][i]
		}
		out.insertIDs(buf)
	}
	return out
}

// index groups row indices by the hash of their id-tuple on the attribute
// set x (buckets may mix hash-colliding keys; probes verify by id
// comparison). The result is memoized per attribute set against the
// mutation tick; callers must treat it as read-only.
func (r *Relation) index(x bitset.Set) map[uint64][]int32 {
	r.memo.Lock()
	defer r.memo.Unlock()
	if m, ok := r.memo.indexes[x]; ok && m.mut == r.mut {
		return m.idx
	}
	pos := r.positions(x)
	idx := make(map[uint64][]int32, r.nrows)
	for i := 0; i < r.nrows; i++ {
		h := r.hashRowAt(i, pos)
		idx[h] = append(idx[h], int32(i))
	}
	if r.memo.indexes == nil {
		r.memo.indexes = map[bitset.Set]*memoIndex{}
	}
	r.memo.indexes[x] = &memoIndex{mut: r.mut, idx: idx}
	return idx
}

// matchOn reports whether r's row i and s's row j agree position-wise on
// rPos/sPos (same attribute order, shared intern table assumed).
func (r *Relation) matchOn(i int, rPos []int, s *Relation, j int, sPos []int) bool {
	for t := range rPos {
		if r.data[rPos[t]][i] != s.data[sPos[t]][j] {
			return false
		}
	}
	return true
}

// Join returns the natural join r ⋈ s. Output rows are appended without a
// membership probe: an output row projects back onto exactly one row of
// each input, so distinct (probe row, build row) pairs yield distinct rows,
// and since both inputs are sets and every pair is visited once, the output
// is a set by construction.
func (r *Relation) Join(s *Relation) *Relation {
	sameInterner(r, s)
	common := r.attrs.Intersect(s.attrs)
	out := New(fmt.Sprintf("(%s⋈%s)", r.Name, s.Name), r.attrs.Union(s.attrs))
	// Build on the smaller side.
	build, probe := s, r
	if r.Size() < s.Size() {
		build, probe = r, s
	}
	idx := build.index(common)
	probePos := probe.positions(common)
	buildPos := build.positions(common)
	// Output tuple layout: union schema, sorted ids; map positions.
	outCols := out.cols
	fromProbe := make([]int, len(outCols))
	fromBuild := make([]int, len(outCols))
	for i, c := range outCols {
		fromProbe[i], fromBuild[i] = -1, -1
		for j, pc := range probe.cols {
			if pc == c {
				fromProbe[i] = j
			}
		}
		for j, bc := range build.cols {
			if bc == c {
				fromBuild[i] = j
			}
		}
	}
	outBuf := make([]uint32, len(outCols))
	for i := 0; i < probe.nrows; i++ {
		h := probe.hashRowAt(i, probePos)
		for _, bi := range idx[h] {
			if !build.matchOn(int(bi), buildPos, probe, i, probePos) {
				continue
			}
			for o := range outCols {
				if fromProbe[o] >= 0 {
					outBuf[o] = probe.data[fromProbe[o]][i]
				} else {
					outBuf[o] = build.data[fromBuild[o]][int(bi)]
				}
			}
			out.appendIDs(outBuf)
		}
	}
	return out
}

// Semijoin returns r ⋉ s: tuples of r matching some tuple of s on the
// common attributes. The index over s is memoized (see index), so reducing
// many relations against one shared side — the ModeFull semijoin loop,
// incremental-maintenance rounds — hashes s once, not once per call.
func (r *Relation) Semijoin(s *Relation) *Relation {
	sameInterner(r, s)
	common := r.attrs.Intersect(s.attrs)
	idx := s.index(common)
	rPos := r.positions(common)
	sPos := s.positions(common)
	name := fmt.Sprintf("(%s⋉%s)", r.Name, s.Name)
	// Mark the surviving rows first, so the output is sized exactly — or,
	// when nothing is filtered, is a Snapshot sharing r's columns.
	keep := make([]uint64, (r.nrows+63)/64)
	n := 0
	for i := 0; i < r.nrows; i++ {
		h := r.hashRowAt(i, rPos)
		for _, si := range idx[h] {
			if r.matchOn(i, rPos, s, int(si), sPos) {
				keep[i/64] |= 1 << (i % 64)
				n++
				break
			}
		}
	}
	if n == r.nrows {
		return r.Snapshot(name)
	}
	out := newSized(name, r.attrs, n)
	for c, col := range r.data {
		dst := out.data[c]
		for i := 0; i < r.nrows; i++ {
			if keep[i/64]&(1<<(i%64)) != 0 {
				dst = append(dst, col[i])
			}
		}
		out.data[c] = dst
	}
	out.nrows = n
	out.mut = uint64(n)
	return out
}

// Concat returns the union of parts (at least one, all over one schema and
// intern table) in part order, appending rows without a membership probe.
// The caller guarantees the parts are pairwise disjoint — the buckets of a
// hash partition, say; overlapping parts would yield duplicate rows.
func Concat(name string, parts []*Relation) *Relation {
	n := 0
	for _, p := range parts {
		if p.attrs != parts[0].attrs {
			panic(fmt.Sprintf("concat schema mismatch: %v vs %v", parts[0].attrs, p.attrs))
		}
		sameInterner(parts[0], p)
		n += p.nrows
	}
	out := newSized(name, parts[0].attrs, n)
	for _, p := range parts {
		for c := range out.data {
			out.data[c] = append(out.data[c], p.data[c][:p.nrows]...)
		}
	}
	out.nrows = n
	out.mut = uint64(n)
	return out
}

// Partition hash-partitions r into k buckets by the FNV-1a hash of each
// tuple's projection onto `on` (which must be a subset of the schema).
// The split is deterministic — a fixed function of the tuple values, never
// of insertion order, id assignment or capacity — so two relations
// partitioned with the same k and the same shared attributes are
// co-partitioned: rows agreeing on `on` land in the same bucket index.
// Bucket relations are memoized per (k, on) against the mutation tick;
// callers must treat them as read-only.
func (r *Relation) Partition(k int, on bitset.Set) []*Relation {
	if k <= 1 {
		return []*Relation{r}
	}
	mk := partMemoKey{k: k, on: on}
	r.memo.Lock()
	defer r.memo.Unlock()
	if m, ok := r.memo.parts[mk]; ok && m.mut == r.mut {
		return m.parts
	}
	pos := r.positions(on)
	parts := make([]*Relation, k)
	for j := range parts {
		parts[j] = New(fmt.Sprintf("%s[p%d/%d]", r.Name, j, k), r.attrs)
	}
	buf := make([]uint32, len(r.cols))
	for i := 0; i < r.nrows; i++ {
		parts[r.bucketOf(i, pos, k)].appendUnique(r.rowIDs(i, buf))
	}
	if r.memo.parts == nil {
		r.memo.parts = map[partMemoKey]*memoParts{}
	}
	r.memo.parts[mk] = &memoParts{mut: r.mut, parts: parts}
	return parts
}

// bucketOf maps row i's projection onto pos to a bucket in [0, k), hashing
// the decoded values byte-wise with FNV-1a (little-endian), bit-identical to
// the pre-columnar layout so partition contents are stable across releases.
func (r *Relation) bucketOf(i int, pos []int, k int) int {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		v := uint64(r.in.ValueOf(r.data[p][i]))
		for s := uint(0); s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= fnvPrime64
		}
	}
	return int(h % uint64(k))
}

// groupRows numbers the distinct projections of r's rows onto pos in
// first-appearance order: gid[i] is row i's group and n counts the groups.
func (r *Relation) groupRows(pos []int) (gid []int32, n int) {
	gid = make([]int32, r.nrows)
	hash := func(i int) uint64 { return r.hashRowAt(i, pos) }
	set := newRowSet(0)
	for i := 0; i < r.nrows; i++ {
		if !set.fits(n + 1) {
			set.resize(n+1, hash)
		}
		for j := set.home(hash(i)); ; j = set.next(j) {
			v := set.slots[j]
			if v == 0 { // a new group, represented by row i
				set.slots[j] = int32(i + 1)
				gid[i] = int32(n)
				n++
				break
			}
			if rep := int(v - 1); r.rowsMatchAt(rep, i, pos) {
				gid[i] = gid[rep]
				break
			}
		}
	}
	return gid, n
}

// xDegrees groups r's rows by X-value (xg[i] is row i's group, numbered in
// first-appearance order) and returns every group's degree: the number of
// distinct Y-values among its rows, X ⊆ Y ⊆ schema.
func (r *Relation) xDegrees(y, x bitset.Set) (xg, deg []int32) {
	xg, nx := r.groupRows(r.positions(x))
	deg = make([]int32, nx)
	if y == r.attrs {
		// r is a set: every row is its own Y-value.
		for _, g := range xg {
			deg[g]++
		}
		return xg, deg
	}
	yg, _ := r.groupRows(r.positions(y))
	next := int32(0)
	for i, g := range yg {
		// Y-groups are numbered in first-appearance order, so g == next
		// marks the first row of a new Y-value; X ⊆ Y puts all of that
		// value's rows in one X-group.
		if g == next {
			next++
			deg[xg[i]]++
		}
	}
	return xg, deg
}

// Degree returns deg_r(Y|X) = max over X-tuples t of |Π_Y(σ_{X=t}(r))|,
// per Definition 2.10, with X ⊆ Y ⊆ schema. Degree(Y, ∅) = |Π_Y(r)|.
func (r *Relation) Degree(y, x bitset.Set) int {
	if !x.SubsetOf(y) || !y.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation %s: bad degree query Y=%v X=%v schema=%v", r.Name, y, x, r.attrs))
	}
	_, deg := r.xDegrees(y, x)
	best := int32(0)
	for _, d := range deg {
		best = max(best, d)
	}
	return int(best)
}

// PartitionByDegree implements Lemma 6.1 on r's rows: it splits r, by the
// degree of each row's X-value over Π_Y(r), into at most
// 2·log₂|Π_Y(r)|+2 buckets such that in bucket j,
// |Π_X(bucket)| · max-degree(Y|X within bucket) ≤ |Π_Y(r)|, for
// X ⊆ Y ⊆ schema. Bucket j collects X-values whose degree lies in
// [2^j, 2^{j+1}), halved again by X-value (in first-appearance order) so
// that the product bound holds. Buckets keep r's schema and row order and
// come in ascending degree order; as a split of a set they need no dedup.
func (r *Relation) PartitionByDegree(y, x bitset.Set) []*Relation {
	if !x.SubsetOf(y) || !y.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation %s: bad degree partition Y=%v X=%v schema=%v", r.Name, y, x, r.attrs))
	}
	xg, deg := r.xDegrees(y, x)
	// An X-group's degree class is ⌊log₂ deg⌋; count the groups per class.
	class := func(d int32) int { return bits.Len32(uint32(d)) - 1 }
	var perClass [32]int32
	for _, d := range deg {
		perClass[class(d)]++
	}
	// Bucket numbering: classes ascending, each class's first half of
	// groups (by first appearance) then its second half.
	var first [32]int32
	nb := int32(0)
	for j, n := range perClass {
		if n == 0 {
			continue
		}
		first[j] = nb
		nb++
		if n >= 2 {
			nb++
		}
	}
	bucket := make([]int32, len(deg))
	var rank [32]int32
	for g, d := range deg {
		j := class(d)
		bucket[g] = first[j]
		if rank[j] >= (perClass[j]+1)/2 {
			bucket[g]++
		}
		rank[j]++
	}
	sizes := make([]int, nb)
	for _, g := range xg {
		sizes[bucket[g]]++
	}
	out := make([]*Relation, nb)
	for b := range out {
		out[b] = newSized(fmt.Sprintf("%s[b%d]", r.Name, b), r.attrs, sizes[b])
	}
	buf := make([]uint32, len(r.cols))
	for i, g := range xg {
		out[bucket[g]].appendUnique(r.rowIDs(i, buf))
	}
	return out
}

// Clone returns a deep copy with a new name. A built dedup table is copied
// along with the columns: row indices are unchanged, so it stays valid.
func (r *Relation) Clone(name string) *Relation {
	out := New(name, r.attrs)
	for c := range r.data {
		out.data[c] = slices.Clone(r.data[c][:r.nrows])
	}
	out.nrows = r.nrows
	out.mut = uint64(r.nrows)
	if r.seen.present() {
		out.seen = rowSet{slots: slices.Clone(r.seen.slots), shift: r.seen.shift}
	}
	return out
}

// Snapshot returns a read-mostly copy sharing r's column storage: O(arity)
// pointer copies instead of O(rows) re-hashing, which is what makes binding
// a catalog relation into a query instance cheap. Columns are
// capacity-capped, so a later append to either relation reallocates rather
// than aliasing; the snapshot rebuilds its dedup table lazily on first
// mutation or membership probe. Ticks, marks and hints are not carried
// over.
func (r *Relation) Snapshot(name string) *Relation {
	out := &Relation{
		Name:  name,
		attrs: r.attrs,
		cols:  r.cols,
		in:    r.in,
		data:  make([][]uint32, len(r.data)),
		nrows: r.nrows,
	}
	for c := range r.data {
		out.data[c] = r.data[c][:r.nrows:r.nrows]
	}
	return out
}

// SnapshotAs is Snapshot with the columns reinterpreted under a new schema
// of equal arity: position k of the new schema's sorted variables reads r's
// column k. This is how query binding renames a stored catalog relation
// ({0..arity-1}) onto an atom's variable set without touching a row.
func (r *Relation) SnapshotAs(name string, attrs bitset.Set) *Relation {
	if attrs.Card() != len(r.cols) {
		panic(fmt.Sprintf("relation %s: SnapshotAs arity %d, want %d", r.Name, attrs.Card(), len(r.cols)))
	}
	out := r.Snapshot(name)
	out.attrs = attrs
	out.cols = attrs.Vars()
	return out
}

// Equal reports whether two relations hold the same tuple set over the same
// schema.
func (r *Relation) Equal(s *Relation) bool {
	if r.attrs != s.attrs || r.Size() != s.Size() {
		return false
	}
	sameInterner(r, s)
	buf := make([]uint32, len(r.cols))
	for i := 0; i < s.nrows; i++ {
		if !r.containsIDs(s.rowIDs(i, buf)) {
			return false
		}
	}
	return true
}

func (r *Relation) String() string {
	return fmt.Sprintf("%s(%v)[%d tuples]", r.Name, r.attrs, r.Size())
}
