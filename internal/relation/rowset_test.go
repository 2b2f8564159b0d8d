package relation

import (
	"math/rand"
	"testing"

	"panda/internal/bitset"
)

// checkSeen asserts the dedup table invariants: when present it holds
// every row index exactly once and is at most half full.
func checkSeen(t *testing.T, r *Relation) {
	t.Helper()
	if !r.seen.present() {
		return
	}
	if !r.seen.fits(r.nrows) {
		t.Fatalf("%s: %d rows in %d slots, more than half full", r.Name, r.nrows, len(r.seen.slots))
	}
	held := make([]bool, r.nrows)
	n := 0
	for _, v := range r.seen.slots {
		if v == 0 {
			continue
		}
		i := int(v - 1)
		if i >= r.nrows || held[i] {
			t.Fatalf("%s: slot holds row %d (rows %d, repeated %v)", r.Name, i, r.nrows, i < r.nrows && held[i])
		}
		held[i] = true
		n++
	}
	if n != r.nrows {
		t.Fatalf("%s: table indexes %d of %d rows", r.Name, n, r.nrows)
	}
}

func TestRowSetDoublingsAndDuplicates(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	r.Insert([]Value{0, 0})
	start := len(r.seen.slots)
	const n = 5000
	for i := 1; i < n; i++ {
		r.Insert([]Value{Value(i), Value(i * 7 % 13)})
	}
	if got := len(r.seen.slots); got < 8*start {
		t.Fatalf("table grew %d → %d slots, want several doublings", start, got)
	}
	checkSeen(t, r)
	// Every duplicate is rejected, whichever way it arrives.
	for i := 0; i < n; i++ {
		row := []Value{Value(i), Value(i * 7 % 13)}
		if i == 0 {
			row[1] = 0
		}
		r.Insert(row)
		if !r.Contains(row) {
			t.Fatalf("row %v missing", row)
		}
	}
	if r.Size() != n {
		t.Fatalf("Size = %d after re-inserting every row, want %d", r.Size(), n)
	}
	if r.Contains([]Value{n, 0}) {
		t.Fatal("Contains reports a row never inserted")
	}
	checkSeen(t, r)
}

func TestRowSetCollidingHashes(t *testing.T) {
	// Every row hashes alike: linear probing must still place each once,
	// wrapping around the table, across resizes.
	same := func(int) uint64 { return 42 }
	s := newRowSet(0)
	const n = 100
	for row := 0; row < n; row++ {
		if !s.fits(row + 1) {
			s.resize(row+1, same)
		}
		s.put(same(row), row)
	}
	seen := map[int32]bool{}
	for _, v := range s.slots {
		if v != 0 {
			if seen[v] {
				t.Fatalf("row %d placed twice", v-1)
			}
			seen[v] = true
		}
	}
	if len(seen) != n || !s.fits(n) {
		t.Fatalf("%d rows placed in %d slots", len(seen), len(s.slots))
	}
}

func TestRowSetContainsAfterBuildSorted(t *testing.T) {
	b := NewBuilder("B", bitset.Of(0, 1), 4)
	rows := [][]Value{{9, 1}, {2, 8}, {5, 5}, {2, 8}, {0, 3}, {7, 7}, {1, 1}}
	for _, row := range rows {
		b.Add(row)
	}
	r := b.BuildSorted()
	if r.Size() != 6 {
		t.Fatalf("Size = %d, want 6", r.Size())
	}
	for _, row := range rows {
		if !r.Contains(row) {
			t.Fatalf("row %v missing after BuildSorted", row)
		}
	}
	if r.Contains([]Value{8, 2}) {
		t.Fatal("Contains reports a row never added")
	}
	r.Insert([]Value{5, 5})
	r.Insert([]Value{4, 4})
	if r.Size() != 7 {
		t.Fatalf("Size = %d after a duplicate and a new insert, want 7", r.Size())
	}
	checkSeen(t, r)
}

func TestRowSetSnapshotInsert(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	for i := 0; i < 100; i++ {
		r.Insert([]Value{Value(i), Value(i % 3)})
	}
	snap := r.Snapshot("S")
	snap.Insert([]Value{3, 0}) // duplicate of a shared row
	snap.Insert([]Value{500, 1})
	if snap.Size() != 101 || r.Size() != 100 {
		t.Fatalf("sizes snapshot %d / original %d, want 101 / 100", snap.Size(), r.Size())
	}
	if !snap.Contains([]Value{500, 1}) || !snap.Contains([]Value{99, 0}) {
		t.Fatal("snapshot misses a row")
	}
	if r.Contains([]Value{500, 1}) {
		t.Fatal("snapshot insert leaked into the original")
	}
	checkSeen(t, snap)
	checkSeen(t, r)
}

func TestRowSetAppendUniqueAfterEnsureSeen(t *testing.T) {
	r := New("R", bitset.Of(0, 1, 2))
	r.Insert([]Value{0, 0, 0})
	r.ensureSeen(0)
	ids := make([]uint32, 3)
	for i := 1; i < 300; i++ {
		for c := range ids {
			ids[c] = Global.Intern(Value(i*(c+1) + 1000))
		}
		r.appendUnique(ids)
	}
	checkSeen(t, r)
	for i := 1; i < 300; i++ {
		row := []Value{Value(i + 1000), Value(2*i + 1000), Value(3*i + 1000)}
		if !r.Contains(row) {
			t.Fatalf("appended row %v missing", row)
		}
		r.Insert(row)
	}
	if r.Size() != 300 {
		t.Fatalf("Size = %d, want 300: appended rows must reject duplicates", r.Size())
	}
}

func TestCloneCopiesDedupTable(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	for i := 0; i < 50; i++ {
		r.Insert([]Value{Value(i), Value(i)})
	}
	c := r.Clone("C")
	checkSeen(t, c)
	c.Insert([]Value{7, 7})
	c.Insert([]Value{70, 70})
	if c.Size() != 51 || r.Size() != 50 || r.Contains([]Value{70, 70}) {
		t.Fatalf("clone %d rows, original %d: inserts must stay in the clone", c.Size(), r.Size())
	}
	checkSeen(t, r)
	checkSeen(t, c)
}

func TestConcat(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	s := pairs("S", 0, 1, [][2]Value{{5, 6}})
	u := Concat("U", []*Relation{r, s, New("E", bitset.Of(0, 1))})
	if u.Size() != 3 || !u.Contains([]Value{5, 6}) || !u.Contains([]Value{1, 2}) {
		t.Fatalf("concat = %v", u.SortedRows())
	}
	if got := u.Rows(); got[0][0] != 1 || got[2][0] != 5 {
		t.Fatalf("concat order %v, want part order", got)
	}
	u.Insert([]Value{9, 9})
	if r.Size() != 2 || s.Size() != 1 {
		t.Fatal("insert into the concatenation changed a part")
	}
}

// TestPartitionByDegreeSplitsGuard checks the general form used by the
// decomposition step: with Y a strict subset of the schema, the buckets
// partition r's rows (not Π_Y(r)), keep r's row order, and send every row
// to the bucket its X-value gets when Π_Y(r) itself is partitioned.
func TestPartitionByDegreeSplitsGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	y, x := bitset.Of(0, 1), bitset.Of(0)
	for trial := 0; trial < 20; trial++ {
		r := New("R", bitset.Of(0, 1, 2))
		for i := 0; i < 1+rng.Intn(300); i++ {
			a := rng.Intn(20)
			if rng.Intn(3) == 0 {
				a = 0 // a heavy X-value
			}
			r.Insert([]Value{Value(a), Value(rng.Intn(30)), Value(rng.Intn(3))})
		}
		rows := r.Rows()
		parts := r.PartitionByDegree(y, x)
		ref := r.Project(y).PartitionByDegree(y, x)
		if len(parts) != len(ref) {
			t.Fatalf("trial %d: %d buckets, Π_Y(r) splits into %d", trial, len(parts), len(ref))
		}
		total := 0
		for b, p := range parts {
			total += p.Size()
			if p.Attrs() != r.Attrs() {
				t.Fatalf("trial %d: bucket schema %v", trial, p.Attrs())
			}
			if !p.Project(y).Equal(ref[b]) {
				t.Fatalf("trial %d: bucket %d disagrees with the Π_Y(r) split", trial, b)
			}
			// r's row order: each bucket is a subsequence of r.
			i := 0
			for row := range p.All() {
				for i < r.Size() && !equalRow(rows[i], row) {
					i++
				}
				if i == r.Size() {
					t.Fatalf("trial %d: bucket %d breaks r's row order at %v", trial, b, row)
				}
			}
		}
		if total != r.Size() {
			t.Fatalf("trial %d: buckets cover %d of %d rows", trial, total, r.Size())
		}
	}
}

func equalRow(a, b []Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
