package relation

import (
	"panda/internal/bitset"
)

// Builder constructs a relation in bulk: rows are interned and deduplicated
// as they arrive into column vectors and a dedup table both presized for
// the hinted row count, and Build can lay the rows out in sorted order for
// deterministic storage. Use it when the whole
// row set is known up front (query binding, CSV ingest, test fixtures);
// incremental catalog writes keep using Relation.Insert.
type Builder struct {
	r *Relation
}

// NewBuilder starts a relation with the given schema, preallocating for
// sizeHint rows (0 is fine).
func NewBuilder(name string, attrs bitset.Set, sizeHint int) *Builder {
	r := newSized(name, attrs, sizeHint)
	r.ensureSeen(sizeHint)
	return &Builder{r: r}
}

// Add inserts one tuple in column order; duplicates are dropped.
func (b *Builder) Add(t []Value) { b.r.Insert(t) }

// AddIDs inserts one already-interned row; duplicates are dropped.
func (b *Builder) AddIDs(ids []uint32) { b.r.InsertIDs(ids) }

// Size returns the number of distinct rows added so far.
func (b *Builder) Size() int { return b.r.Size() }

// Build finalizes and returns the relation. The builder must not be used
// afterwards.
func (b *Builder) Build() *Relation {
	r := b.r
	b.r = nil
	return r
}

// BuildSorted finalizes like Build but with rows stored in lexicographic
// value order, so storage order — and therefore cursor iteration order —
// is deterministic regardless of insertion order.
func (b *Builder) BuildSorted() *Relation {
	r := b.r
	b.r = nil
	perm := r.sortedPerm()
	for c := range r.data {
		col := make([]uint32, r.nrows)
		for i, p := range perm {
			col[i] = r.data[c][int(p)]
		}
		r.data[c] = col
	}
	// Row indices moved: rebuild the dedup table lazily if ever needed.
	r.seen = rowSet{}
	r.mut++
	return r
}
