package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// Every input the program receives is generated here from the seed alone:
// rows, query texts and op sequences. Each generator draws from its own
// PCG stream, so adding a draw to one never shifts another.

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// shapeSeed fixes the shape of the random instances. The run's seed picks
// their value labels (labeler), the worst-case instances' labels, and the
// serving op sequence. Relabeling yields an isomorphic instance, so runs
// with different seeds do the same join work on different values — the
// seed-to-seed spread then measures the program, not the luck of the draw
// in a small random graph — while hash partitioning, interning and hot/
// fresh request order still vary with the seed.
const shapeSeed = 0x5eed

// labeler is a seeded injection of [0,dom) into [0,8·dom).
type labeler []int64

func newLabeler(seed int64, stream uint64, dom int) labeler {
	perm := newRand(seed, stream).Perm(8 * dom)
	l := make(labeler, dom)
	for i := range l {
		l[i] = int64(perm[i])
	}
	return l
}

func (l labeler) row(row []int64) []int64 {
	out := make([]int64, len(row))
	for i, v := range row {
		out[i] = l[v]
	}
	return out
}

func (l labeler) rows(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	for i, r := range rows {
		out[i] = l.row(r)
	}
	return out
}

// pairSet is a binary relation under construction with an out-adjacency
// index, used by the generators and the independent oracles.
type pairSet struct {
	rows [][]int64
	has  map[[2]int64]bool
	out  map[int64][]int64
}

func newPairSet() *pairSet {
	return &pairSet{has: map[[2]int64]bool{}, out: map[int64][]int64{}}
}

func (p *pairSet) add(u, v int64) bool {
	k := [2]int64{u, v}
	if p.has[k] {
		return false
	}
	p.has[k] = true
	p.rows = append(p.rows, []int64{u, v})
	p.out[u] = append(p.out[u], v)
	return true
}

// randomPairs draws n distinct pairs over [0,dom)².
func randomPairs(r *rand.Rand, n, dom int) *pairSet {
	p := newPairSet()
	for len(p.rows) < n {
		p.add(r.Int64N(int64(dom)), r.Int64N(int64(dom)))
	}
	return p
}

// ---- analytic ----

// analyticQuery is one query of the analytic report: its text and the
// rows of every relation it reads, in the atoms' declared column order.
type analyticQuery struct {
	name string
	text string
	subw bool // force ModeSubw (the Example 1.10 degree-partitioned plan)
	rule bool
	rels map[string][][]int64
}

// Sizes are chosen so that on a 2-vCPU box each of the triangle and the
// random 4-cycle takes about 20 ms, and a whole report about 50 ms.
const (
	triangleRows  = 1280
	triangleDom   = 104
	cycleWorstM   = 96
	cycleRandRows = 64
	cycleRandDom  = 36
	pathWorstM    = 192
)

// genAnalytic builds the four report queries.
func genAnalytic(seed int64) []analyticQuery {
	r, shape := newRand(seed, 1), newRand(shapeSeed, 1)
	tri := analyticQuery{
		name: "triangle",
		text: "Q(A,B,C) :- R(A,B), S(B,C), T(C,A).",
		rels: map[string][][]int64{},
	}
	lab := newLabeler(seed, 11, triangleDom)
	for _, n := range []string{"R", "S", "T"} {
		tri.rels[n] = lab.rows(randomPairs(shape, triangleRows, triangleDom).rows)
	}

	// Example 1.10: R12 = [m]×{z2}, R23 = {z2}×[m], R34 = [m]×{z4},
	// R41 = {z4}×[m] (declared columns A4,A1), with seeded value labels.
	// The Boolean 4-cycle holds m² cycles through (·, z2, ·, z4).
	a1, a3, z2, z4 := labels(r, cycleWorstM)
	worst := analyticQuery{
		name: "cycle4_worst",
		text: "Q() :- W12(A1,A2), W23(A2,A3), W34(A3,A4), W41(A4,A1).",
		subw: true,
		rels: map[string][][]int64{},
	}
	for i := 0; i < cycleWorstM; i++ {
		worst.rels["W12"] = append(worst.rels["W12"], []int64{a1[i], z2})
		worst.rels["W23"] = append(worst.rels["W23"], []int64{z2, a3[i]})
		worst.rels["W34"] = append(worst.rels["W34"], []int64{a3[i], z4})
		worst.rels["W41"] = append(worst.rels["W41"], []int64{z4, a1[i]})
	}

	rnd := analyticQuery{
		name: "cycle4_random",
		text: "Q() :- C12(A1,A2), C23(A2,A3), C34(A3,A4), C41(A4,A1).",
		rels: map[string][][]int64{},
	}
	lab = newLabeler(seed, 12, cycleRandDom)
	for _, n := range []string{"C12", "C23", "C34", "C41"} {
		rnd.rels[n] = lab.rows(randomPairs(shape, cycleRandRows, cycleRandDom).rows)
	}

	// Example 1.4 on the restriction of the Example 1.10 instance to the
	// path: every one of the m² body tuples must be covered.
	b1, b3, y2, y4 := labels(r, pathWorstM)
	path := analyticQuery{
		name: "path_rule",
		text: "T1(A1,A2,A3) v T2(A2,A3,A4) :- P12(A1,A2), P23(A2,A3), P34(A3,A4).",
		rule: true,
		rels: map[string][][]int64{},
	}
	for i := 0; i < pathWorstM; i++ {
		path.rels["P12"] = append(path.rels["P12"], []int64{b1[i], y2})
		path.rels["P23"] = append(path.rels["P23"], []int64{y2, b3[i]})
		path.rels["P34"] = append(path.rels["P34"], []int64{b3[i], y4})
	}
	return []analyticQuery{tri, worst, rnd, path}
}

// labels draws two disjoint runs of m distinct values and two further
// distinct constants.
func labels(r *rand.Rand, m int) (xs, ys []int64, zx, zy int64) {
	perm := r.Perm(4 * m)
	for i := 0; i < m; i++ {
		xs = append(xs, int64(perm[i]))
		ys = append(ys, int64(perm[m+i]))
	}
	return xs, ys, int64(perm[2*m]), int64(perm[2*m+1])
}

// ---- serving ----

const (
	servingRows    = 192
	servingDom     = 96
	servingClients = 2
	// servingHotRepeat is how often a block sends each hot text.
	servingHotRepeat = 2
)

var servingRels = []string{"R", "S", "T", "U"}

// servingShape is a query template over variables {0}..{3} and relations
// {R},{S},{T}.
type servingShape struct {
	name string
	tmpl string
}

// The pool's shapes are cheap ones only; the 4-cycle stays in analytic.
var servingShapes = []servingShape{
	{"path2", "Q({0},{1},{2}) :- {R}({0},{1}), {S}({1},{2})."},
	{"triangle", "Q({0},{1},{2}) :- {R}({0},{1}), {S}({1},{2}), {T}({2},{0})."},
	{"star", "Q({0},{1},{2},{3}) :- {R}({0},{1}), {S}({0},{2}), {T}({0},{3})."},
	{"bool_triangle", "Q() :- {R}({0},{1}), {S}({1},{2}), {T}({2},{0})."},
	{"triangle_proj", "Q({0},{1}) :- {R}({0},{1}), {S}({1},{2}), {T}({2},{0})."},
	{"path_rule", "T1({0},{1},{2}) v T2({1},{2},{3}) :- {R}({0},{1}), {S}({1},{2}), {T}({2},{3})."},
}

// poolEntry is one hot text: a shape bound to three catalog relations.
type poolEntry struct {
	shape int
	rels  [3]string
	text  string
}

func (e poolEntry) render(vars [4]string) string {
	s := servingShapes[e.shape].tmpl
	for i, v := range vars {
		s = strings.ReplaceAll(s, fmt.Sprintf("{%d}", i), v)
	}
	s = strings.ReplaceAll(s, "{R}", e.rels[0])
	s = strings.ReplaceAll(s, "{S}", e.rels[1])
	return strings.ReplaceAll(s, "{T}", e.rels[2])
}

// servingInputs is the serving catalog and its hot pool.
type servingInputs struct {
	rels map[string][][]int64
	pool []poolEntry
}

func genServing(seed int64) servingInputs {
	shape, lab := newRand(shapeSeed, 2), newLabeler(seed, 2, servingDom)
	in := servingInputs{rels: map[string][][]int64{}}
	for _, n := range servingRels {
		in.rels[n] = lab.rows(randomPairs(shape, servingRows, servingDom).rows)
	}
	for sh := range servingShapes {
		for rot := range servingRels {
			e := poolEntry{shape: sh}
			for k := range e.rels {
				e.rels[k] = servingRels[(rot+k)%len(servingRels)]
			}
			e.text = e.render([4]string{"A", "B", "C", "D"})
			in.pool = append(in.pool, e)
		}
	}
	return in
}

// servingOp is one request of a serving client.
type servingOp struct {
	pool  int
	fresh bool
	text  string
}

// servingClient yields client c's op sequence in blocks. A block sends
// every hot pool text servingHotRepeat times and one fresh renaming of each
// shape, over a seeded relation rotation, in a seeded order: 48 hot and 6
// fresh requests, 11% fresh. Exact proportions per block keep the share of
// expensive fresh requests (the path rule's LP) the same for every seed.
type servingClient struct {
	c     int
	r     *rand.Rand
	pool  []poolEntry
	i     int
	block []servingOp
}

func newServingClient(seed int64, c int, pool []poolEntry) *servingClient {
	return &servingClient{c: c, r: newRand(seed, 100+uint64(c)), pool: pool}
}

func (sc *servingClient) next() servingOp {
	if len(sc.block) == 0 {
		for rep := 0; rep < servingHotRepeat; rep++ {
			for idx, e := range sc.pool {
				sc.block = append(sc.block, servingOp{pool: idx, text: e.text})
			}
		}
		for sh := range servingShapes {
			idx := sh*len(servingRels) + sc.r.IntN(len(servingRels))
			sc.block = append(sc.block, servingOp{pool: idx, fresh: true})
		}
		sc.r.Shuffle(len(sc.block), func(i, j int) { sc.block[i], sc.block[j] = sc.block[j], sc.block[i] })
	}
	op := sc.block[0]
	sc.block = sc.block[1:]
	if op.fresh {
		var vars [4]string
		for j := range vars {
			vars[j] = fmt.Sprintf("V%dn%d%c", sc.c, sc.i, 'a'+j)
		}
		op.text = sc.pool[op.pool].render(vars)
	}
	sc.i++
	return op
}

// ---- live ----

const (
	liveRows = 2048
	liveDom  = 512
	// liveBatch rows go to one relation per write.
	liveBatch = 8
	// liveReadEvery: a one-shot read follows every liveReadEvery-th write.
	liveReadEvery = 8
	// liveWrites per epoch keeps growth to about 10% of the catalog:
	// 72 × 8 rows over 3 × 2048.
	liveWrites = 72
)

var liveRels = []string{"R", "S", "T"}

const (
	liveWatchText = "Q(A,B,C) :- R(A,B), S(B,C), T(C,A)."
	liveReadText  = "Q(A,B) :- R(A,B), S(B,C), T(C,A)."
)

// liveWrite is one batch and what the oracle expects from it.
type liveWrite struct {
	rel  int
	rows [][]int64
	// newTri are the triangles (A,B,C) the batch closes: the watch delta
	// must carry exactly these.
	newTri [][]int64
	// read is set on every liveReadEvery-th write: the digest of the
	// triangle projection on (A,B) after the write.
	read   bool
	readDg digest
}

// liveInputs is the catalog, the epoch's write sequence and its oracle.
type liveInputs struct {
	rels     [3][][]int64
	init     digest // triangle set of the catalog
	initProj digest // its projection on (A,B)
	writes   []liveWrite
}

// genLive builds the catalog R(A,B), S(B,C), T(C,A) and a write sequence in
// which every batch closes at least one new triangle. The oracle tracks
// triangles with its own adjacency index, independent of the program.
func genLive(seed int64) liveInputs {
	r, lab := newRand(shapeSeed, 3), newLabeler(seed, 3, liveDom)
	var in liveInputs
	var rel [3]*pairSet
	for k := range rel {
		rel[k] = randomPairs(r, liveRows, liveDom)
		in.rels[k] = lab.rows(rel[k].rows)
	}
	tris := map[[3]int64]bool{}
	proj := map[[2]int64]bool{}
	addTri := func(t [3]int64) {
		tris[t] = true
		proj[[2]int64{t[0], t[1]}] = true
	}
	// closes returns the triangles a row (u,v) of rel[k] closes. The
	// relations form a cycle: rel[k] = (x_k, x_{k+1}) over (A,B,C).
	closes := func(k int, u, v int64) [][3]int64 {
		var out [][3]int64
		for _, w := range rel[(k+1)%3].out[v] {
			if rel[(k+2)%3].has[[2]int64{w, u}] {
				var t [3]int64
				t[k], t[(k+1)%3], t[(k+2)%3] = u, v, w
				out = append(out, t)
			}
		}
		return out
	}
	for _, row := range rel[0].rows {
		for _, t := range closes(0, row[0], row[1]) {
			addTri(t)
		}
	}
	for t := range tris {
		in.init.add(lab.row(t[:]))
	}
	for p := range proj {
		in.initProj.add(lab.row(p[:]))
	}
	for j := 0; j < liveWrites; j++ {
		k := j % 3
		w := liveWrite{rel: k}
		// One row that closes a triangle: follow an edge (v,x) of rel[k+1]
		// back through rel[k+2] to a u with (u,v) ∉ rel[k].
		for len(w.rows) == 0 {
			e := rel[(k+1)%3].rows[r.IntN(len(rel[(k+1)%3].rows))]
			v, x := e[0], e[1]
			us := rel[(k+2)%3].out[x]
			if len(us) == 0 {
				continue
			}
			u := us[r.IntN(len(us))]
			if rel[k].add(u, v) {
				w.rows = append(w.rows, []int64{u, v})
			}
		}
		for len(w.rows) < liveBatch {
			u, v := r.Int64N(liveDom), r.Int64N(liveDom)
			if rel[k].add(u, v) {
				w.rows = append(w.rows, []int64{u, v})
			}
		}
		for _, row := range w.rows {
			for _, t := range closes(k, row[0], row[1]) {
				if !tris[t] {
					addTri(t)
					w.newTri = append(w.newTri, []int64{t[0], t[1], t[2]})
				}
			}
		}
		if j%liveReadEvery == liveReadEvery-1 {
			w.read = true
			for p := range proj {
				w.readDg.add(lab.row(p[:]))
			}
		}
		w.rows, w.newTri = lab.rows(w.rows), lab.rows(w.newTri)
		in.writes = append(in.writes, w)
	}
	return in
}

// describe serializes every input a workload hands the program for a seed:
// rows, query texts, and the first n ops of each op stream. Two seeds give
// the same inputs exactly when their descriptions are equal.
func describe(name string, seed int64, n int) ([]byte, error) {
	var b strings.Builder
	switch name {
	case "analytic":
		for _, q := range genAnalytic(seed) {
			fmt.Fprintf(&b, "query %s %q subw=%t rule=%t\n", q.name, q.text, q.subw, q.rule)
			for _, rel := range sortedKeys(q.rels) {
				fmt.Fprintf(&b, "rel %s %v\n", rel, q.rels[rel])
			}
		}
	case "serving":
		in := genServing(seed)
		for _, rel := range sortedKeys(in.rels) {
			fmt.Fprintf(&b, "rel %s %v\n", rel, in.rels[rel])
		}
		for c := 0; c < servingClients; c++ {
			sc := newServingClient(seed, c, in.pool)
			for i := 0; i < n; i++ {
				op := sc.next()
				fmt.Fprintf(&b, "client %d op %d fresh=%t %q\n", c, i, op.fresh, op.text)
			}
		}
	case "live":
		in := genLive(seed)
		for k, rows := range in.rels {
			fmt.Fprintf(&b, "rel %s %v\n", liveRels[k], rows)
		}
		for i, w := range in.writes {
			if i >= n {
				break
			}
			fmt.Fprintf(&b, "write %d %s %v read=%t\n", i, liveRels[w.rel], w.rows, w.read)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []byte(b.String()), nil
}
