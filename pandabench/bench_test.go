package main

import (
	"bytes"
	"math"
	"math/big"
	"testing"
)

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for _, name := range []string{"analytic", "serving", "live"} {
		a, err := describe(name, 7, 200)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := describe(name, 7, 200)
		c, _ := describe(name, 8, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op sequences", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if v, err := percentile(seq(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		// Overlapping children cover [10,50): 40.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		// A child that outlives its parent counts only inside it: [90,100).
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild is its child's business, not the root's.
		{ID: 5, Parent: 3, Start: 25, End: 45},

		// Two children running in parallel over the same interval.
		{ID: 6, Start: 0, End: 100},
		{ID: 7, Parent: 6, Start: 10, End: 60},
		{ID: 8, Parent: 6, Start: 10, End: 60},
		// Disjoint children add up.
		{ID: 9, Start: 0, End: 100},
		{ID: 10, Parent: 9, Start: 0, End: 10},
		{ID: 11, Parent: 9, Start: 50, End: 70},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 50, 3: 10, 5: 20, 6: 50, 7: 50, 9: 70} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestIntermediateOverBound(t *testing.T) {
	for _, c := range []struct {
		maxInter int
		width    *big.Rat
		want     float64
	}{
		{128, big.NewRat(7, 1), 1},
		{64, big.NewRat(7, 1), 0.5},
		{2, big.NewRat(3, 2), 1 / math.Sqrt2},
		{0, big.NewRat(5, 1), 0},
		{10, nil, 0},
	} {
		if got := overBound(c.maxInter, c.width); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("overBound(%d, %v) = %v, want %v", c.maxInter, c.width, got, c.want)
		}
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	var a, b digest
	rows := [][]int64{{1, 2}, {2, 1}, {3, 4}}
	for _, r := range rows {
		a.add(r)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		b.add(rows[i])
	}
	var c digest
	c.add([]int64{1, 2})
	c.add([]int64{1, 2})
	c.add([]int64{3, 4})
	if a != b || a == c {
		t.Errorf("digests: %v %v %v", a, b, c)
	}
}

func TestCoversBody(t *testing.T) {
	body := [][]int64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	vars := [][]int{{0, 1, 2}, {1, 2, 3}}
	if !coversBody(body, vars, [][][]int64{{{1, 2, 3}}, {{6, 7, 8}}}) {
		t.Error("each body tuple is covered by one table, but the model was rejected")
	}
	if coversBody(body, vars, [][][]int64{{{1, 2, 3}}, {{5, 6, 7}}}) {
		t.Error("(5,6,7,8) projects to neither table, but the model was accepted")
	}
}
