package relation

import (
	"math/rand"
	"testing"

	"panda/internal/bitset"
)

func pairs(name string, a, b int, vals [][2]Value) *Relation {
	r := New(name, bitset.Of(a, b))
	for _, v := range vals {
		if a < b {
			r.Insert([]Value{v[0], v[1]})
		} else {
			r.Insert([]Value{v[1], v[0]})
		}
	}
	return r
}

func TestInsertDedup(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	r.Insert([]Value{1, 2})
	r.Insert([]Value{1, 2})
	r.Insert([]Value{2, 1})
	if r.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (set semantics)", r.Size())
	}
	if !r.Contains([]Value{1, 2}) || r.Contains([]Value{3, 3}) {
		t.Fatal("Contains wrong")
	}
}

func TestInsertMap(t *testing.T) {
	r := New("R", bitset.Of(2, 5))
	r.InsertMap(map[int]Value{5: 7, 2: 3})
	if !r.Contains([]Value{3, 7}) {
		t.Fatal("InsertMap stored wrong layout (cols must be sorted)")
	}
}

func TestProject(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 10}, {1, 20}, {2, 10}})
	p := r.Project(bitset.Of(0))
	if p.Size() != 2 || !p.Contains([]Value{1}) || !p.Contains([]Value{2}) {
		t.Fatalf("projection wrong: %v", p.SortedRows())
	}
	if p.Attrs() != bitset.Of(0) {
		t.Fatalf("projection schema %v", p.Attrs())
	}
	// Projection onto the full schema is identity.
	if !r.Project(r.Attrs()).Equal(r) {
		t.Fatal("full projection should equal r")
	}
}

func TestJoinBasic(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {2, 3}})
	s := pairs("S", 1, 2, [][2]Value{{2, 5}, {2, 6}, {9, 9}})
	j := r.Join(s)
	if j.Attrs() != bitset.Of(0, 1, 2) {
		t.Fatalf("join schema %v", j.Attrs())
	}
	want := [][]Value{{1, 2, 5}, {1, 2, 6}}
	if j.Size() != 2 {
		t.Fatalf("join = %v", j.SortedRows())
	}
	for _, w := range want {
		if !j.Contains(w) {
			t.Fatalf("missing %v in %v", w, j.SortedRows())
		}
	}
}

func TestJoinDisjointSchemasIsCrossProduct(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	s := New("S", bitset.Of(2))
	s.Insert([]Value{7})
	s.Insert([]Value{8})
	j := r.Join(s)
	if j.Size() != 4 {
		t.Fatalf("cross product size %d, want 4", j.Size())
	}
}

func TestJoinSameSchemaIsIntersection(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	s := pairs("S", 0, 1, [][2]Value{{1, 2}, {5, 6}})
	j := r.Join(s)
	if j.Size() != 1 || !j.Contains([]Value{1, 2}) {
		t.Fatalf("intersection = %v", j.SortedRows())
	}
}

func TestSemijoin(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {2, 3}, {4, 5}})
	s := New("S", bitset.Of(1))
	s.Insert([]Value{2})
	s.Insert([]Value{5})
	out := r.Semijoin(s)
	if out.Size() != 2 || !out.Contains([]Value{1, 2}) || !out.Contains([]Value{4, 5}) {
		t.Fatalf("semijoin = %v", out.SortedRows())
	}
}

func TestUnion(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}})
	s := pairs("S", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	u := r.Clone("U")
	u.InsertAll(s)
	if u.Size() != 2 || r.Size() != 1 || !u.Contains([]Value{3, 4}) {
		t.Fatalf("union size %d (r %d)", u.Size(), r.Size())
	}
}

func TestDegree(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 10}, {1, 20}, {1, 30}, {2, 10}})
	if d := r.Degree(bitset.Of(0, 1), bitset.Of(0)); d != 3 {
		t.Fatalf("deg(01|0) = %d, want 3", d)
	}
	if d := r.Degree(bitset.Of(0, 1), bitset.Set(0)); d != 4 {
		t.Fatalf("deg(01|∅) = %d, want 4 (= |R|)", d)
	}
	if d := r.Degree(bitset.Of(0), bitset.Set(0)); d != 2 {
		t.Fatalf("deg(0|∅) = %d, want 2", d)
	}
}

// TestPartitionByDegree checks Lemma 6.1: the buckets partition Π_Y(r) and
// in each bucket |Π_X| · deg(Y|X) stays within a small constant of |Π_Y(r)|.
func TestPartitionByDegree(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	// Skewed: value 1 has degree 16, others degree 1.
	for i := 0; i < 16; i++ {
		r.Insert([]Value{1, Value(100 + i)})
	}
	for i := 0; i < 10; i++ {
		r.Insert([]Value{Value(2 + i), 0})
	}
	y, x := bitset.Of(0, 1), bitset.Of(0)
	parts := r.PartitionByDegree(y, x)
	total := 0
	for _, p := range parts {
		total += p.Size()
		nx := p.Project(x).Size()
		dg := p.Degree(y, x)
		if nx*dg > 2*r.Size() {
			t.Fatalf("bucket %s: |Πx|=%d · deg=%d > 2·|R|=%d", p.Name, nx, dg, 2*r.Size())
		}
	}
	if total != r.Size() {
		t.Fatalf("buckets cover %d tuples, want %d", total, r.Size())
	}
	// Heavy value 1 and light values must land in different buckets.
	if len(parts) < 2 {
		t.Fatalf("expected ≥ 2 buckets, got %d", len(parts))
	}
}

func TestPartitionByDegreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := New("R", bitset.Of(0, 1))
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			r.Insert([]Value{Value(rng.Intn(12)), Value(rng.Intn(40))})
		}
		y, x := bitset.Of(0, 1), bitset.Of(0)
		parts := r.PartitionByDegree(y, x)
		total := 0
		seen := map[string]bool{}
		for _, p := range parts {
			total += p.Size()
			for _, row := range p.Rows() {
				k := ""
				for _, v := range row {
					k += string(rune(v)) + ","
				}
				if seen[k] {
					t.Fatalf("tuple %v in two buckets", row)
				}
				seen[k] = true
			}
			nx := p.Project(x).Size()
			dg := p.Degree(y, x)
			if nx*dg > 2*r.Size() {
				t.Fatalf("trial %d: bucket violates Lemma 6.1 bound: %d·%d > 2·%d",
					trial, nx, dg, r.Size())
			}
		}
		if total != r.Size() {
			t.Fatalf("trial %d: buckets cover %d ≠ %d", trial, total, r.Size())
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	c := r.Clone("C")
	if !r.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Insert([]Value{5, 6})
	if r.Equal(c) {
		t.Fatal("clone insert leaked into original")
	}
}

// TestJoinCommutative: r ⋈ s == s ⋈ r on random inputs.
func TestJoinCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		r := New("R", bitset.Of(0, 1))
		s := New("S", bitset.Of(1, 2))
		for i := 0; i < 30; i++ {
			r.Insert([]Value{Value(rng.Intn(5)), Value(rng.Intn(5))})
			s.Insert([]Value{Value(rng.Intn(5)), Value(rng.Intn(5))})
		}
		if !r.Join(s).Equal(s.Join(r)) {
			t.Fatal("join not commutative")
		}
	}
}

// TestJoinAgainstNestedLoop validates the hash join against a nested-loop
// join over decoded rows — independent of Join, of Insert's dedup and of
// Instance.FullJoin — on random inputs of several schema shapes. Join
// appends without a membership probe, so the output must hold exactly the
// matching (r row, s row) pairs, each once.
func TestJoinAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	schemas := [][2]bitset.Set{
		{bitset.Of(0, 1), bitset.Of(1, 2)},       // one shared attribute
		{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}, // two shared
		{bitset.Of(0, 1), bitset.Of(2, 3)},       // cross product
		{bitset.Of(0, 1), bitset.Of(0, 1)},       // intersection
		{bitset.Of(0, 1, 2), bitset.Of(1)},       // containment
	}
	for trial := 0; trial < 40; trial++ {
		sc := schemas[trial%len(schemas)]
		r := randomRelation(rng, sc[0], rng.Intn(60), 2+rng.Intn(5))
		s := randomRelation(rng, sc[1], rng.Intn(60), 2+rng.Intn(5))
		out := r.Join(s)
		if out.Attrs() != sc[0].Union(sc[1]) {
			t.Fatalf("trial %d: join schema %v", trial, out.Attrs())
		}
		want := map[string]bool{}
		for _, rt := range r.Rows() {
			for _, st := range s.Rows() {
				if row, ok := mergeRows(r.Cols(), rt, s.Cols(), st); ok {
					want[rowKey(row)] = true
				}
			}
		}
		got := map[string]bool{}
		for row := range out.All() {
			k := rowKey(row)
			if got[k] {
				t.Fatalf("trial %d: row %v emitted twice", trial, row)
			}
			got[k] = true
			if !want[k] {
				t.Fatalf("trial %d: row %v not in the nested-loop join", trial, row)
			}
		}
		if len(got) != len(want) || out.Size() != len(want) {
			t.Fatalf("trial %d: join %d rows (%d distinct), nested loop %d", trial, out.Size(), len(got), len(want))
		}
	}
}

// mergeRows combines two decoded rows over sorted column lists into one
// row over the union schema, or reports that they disagree on a shared
// column.
func mergeRows(rc []int, rt []Value, sc []int, st []Value) ([]Value, bool) {
	val := map[int]Value{}
	for i, c := range rc {
		val[c] = rt[i]
	}
	for i, c := range sc {
		if v, ok := val[c]; ok && v != st[i] {
			return nil, false
		}
		val[c] = st[i]
	}
	out := make([]Value, 0, len(val))
	for c := 0; len(out) < len(val); c++ {
		if v, ok := val[c]; ok {
			out = append(out, v)
		}
	}
	return out, true
}

func rowKey(row []Value) string {
	k := ""
	for _, v := range row {
		k += string(rune(v)) + ","
	}
	return k
}

func TestSemijoinIsProjectionOfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		r := New("R", bitset.Of(0, 1))
		s := New("S", bitset.Of(1, 2))
		for i := 0; i < 25; i++ {
			r.Insert([]Value{Value(rng.Intn(4)), Value(rng.Intn(4))})
			s.Insert([]Value{Value(rng.Intn(4)), Value(rng.Intn(4))})
		}
		if !r.Semijoin(s).Equal(r.Join(s).Project(r.Attrs())) {
			t.Fatal("semijoin ≠ Π(join)")
		}
	}
}

func TestTickMarksAndRowsSince(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	if r.Tick() != 0 {
		t.Fatalf("fresh relation tick = %d, want 0", r.Tick())
	}
	if got := len(r.RowsSince(0)); got != 0 {
		t.Fatalf("RowsSince(0) on empty = %d rows", got)
	}
	r.Stamp(1) // creation stamp at zero rows
	r.Insert([]Value{1, 2})
	r.Insert([]Value{3, 4})
	r.Stamp(2)
	r.Insert([]Value{5, 6})
	r.Insert([]Value{5, 6}) // duplicate: set semantics, no new row
	r.Stamp(3)
	r.Stamp(4) // no new rows: a no-op, Tick stays at the last real mark
	if r.Tick() != 3 {
		t.Fatalf("tick = %d, want 3", r.Tick())
	}
	// Since tick 1: everything after the creation stamp.
	if got := len(r.RowsSince(1)); got != 3 {
		t.Fatalf("RowsSince(1) = %d rows, want 3", got)
	}
	// Since tick 2: only the third insert.
	d := r.RowsSince(2)
	if len(d) != 1 || d[0][0] != 5 || d[0][1] != 6 {
		t.Fatalf("RowsSince(2) = %v, want [[5 6]]", d)
	}
	// Since ticks 3 and 4 (merged mark): empty either way.
	if len(r.RowsSince(3)) != 0 || len(r.RowsSince(4)) != 0 {
		t.Fatal("RowsSince past the newest mark should be empty")
	}
	// A tick older than every mark returns all rows.
	if got := len(r.RowsSince(0)); got != 3 {
		t.Fatalf("RowsSince(0) = %d rows, want 3", got)
	}
	// The delta subslice must not observe later growth (capped capacity).
	d = r.RowsSince(2)
	r.Insert([]Value{7, 8})
	r.Stamp(5)
	if len(d) != 1 {
		t.Fatalf("delta subslice grew to %d rows", len(d))
	}
	if got := len(r.RowsSince(4)); got != 1 {
		t.Fatalf("RowsSince(4) = %d rows, want 1", got)
	}
}
