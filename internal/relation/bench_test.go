package relation

import (
	"math/rand"
	"testing"

	"panda/internal/bitset"
)

func randomRelation(rng *rand.Rand, attrs bitset.Set, n, dom int) *Relation {
	r := New("B", attrs)
	k := attrs.Card()
	row := make([]Value, k)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = Value(rng.Intn(dom))
		}
		r.Insert(row)
	}
	return r
}

func BenchmarkHashJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := randomRelation(rng, bitset.Of(0, 1), 5000, 200)
	s := randomRelation(rng, bitset.Of(1, 2), 5000, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Join(s)
	}
}

func BenchmarkSemijoin(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	r := randomRelation(rng, bitset.Of(0, 1), 10000, 500)
	s := randomRelation(rng, bitset.Of(1, 2), 10000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Semijoin(s)
	}
}

func BenchmarkProject(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	r := randomRelation(rng, bitset.Of(0, 1, 2), 20000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Project(bitset.Of(0, 2))
	}
}

func BenchmarkPartitionByDegree(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	r := New("R", bitset.Of(0, 1))
	// Zipf-ish skew to exercise multiple buckets.
	for i := 0; i < 20000; i++ {
		x := rng.Intn(100)
		if rng.Intn(4) == 0 {
			x = 0
		}
		r.Insert([]Value{Value(x), Value(rng.Intn(5000))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PartitionByDegree(bitset.Of(0, 1), bitset.Of(0))
	}
}

// BenchmarkInsertDedup measures the dedup insert path (Relation.Insert):
// 16384 rows over a 2048×2048 domain, every row inserted twice, into a
// fresh relation per iteration so the table grows from empty.
func BenchmarkInsertDedup(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]Value, 16384)
	for i := range rows {
		rows[i] = []Value{Value(rng.Intn(2048)), Value(rng.Intn(2048))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New("R", bitset.Of(0, 1))
		for _, row := range rows {
			r.Insert(row)
		}
		for _, row := range rows {
			r.Insert(row)
		}
	}
}

// BenchmarkInsertAll measures folding one relation into a copy of another
// (the table-merge path): two 16384-row relations over a shared schema,
// about a quarter of s already in r.
func BenchmarkInsertAll(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	r := randomRelation(rng, bitset.Of(0, 1, 2), 16384, 40)
	s := randomRelation(rng, bitset.Of(0, 1, 2), 16384, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := r.Clone("C")
		c.InsertAll(s)
	}
}
