package graph

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
	"testing/quick"

	"dyndiam/internal/rng"
)

// oneByOne builds the reference graph for SetEdges: the same edge list
// added with AddEdge.
func oneByOne(n int, us, vs []int32) *Graph {
	g := New(n)
	for i := range us {
		g.AddEdge(int(us[i]), int(vs[i]))
	}
	return g
}

func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("%s: got N=%d M=%d %v, want N=%d M=%d %v", what, got.N(), got.M(), got.Edges(), want.N(), want.M(), want.Edges())
	}
	for v := 0; v < want.N(); v++ {
		if g, w := got.Adj(v), want.Adj(v); len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
			t.Fatalf("%s: Adj(%d) = %v, want %v", what, v, g, w)
		}
	}
}

// randomEdgeList draws m edges over n vertices, with repeats and reversed
// pairs, as SetEdges input.
func randomEdgeList(n, m int, src *rng.Source) (us, vs []int32) {
	for len(us) < m {
		u, v := src.Intn(n), src.Intn(n)
		if u == v {
			continue
		}
		us, vs = append(us, int32(u)), append(vs, int32(v))
		if src.Intn(4) == 0 { // repeat it, half the time reversed
			if src.Bool() {
				u, v = v, u
			}
			us, vs = append(us, int32(u)), append(vs, int32(v))
		}
	}
	return us, vs
}

// TestSetEdgesMatchesAddEdge: a bulk build equals the one-by-one build of
// the same list, including when SetEdges reuses a graph that held a
// different (larger or smaller) graph before.
func TestSetEdgesMatchesAddEdge(t *testing.T) {
	t.Parallel()
	reused := New(0)
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		src := rng.New(seed)
		n := int(nRaw%60) + 2
		m := int(mRaw) % (n * 3)
		us, vs := randomEdgeList(n, m, src)
		want := oneByOne(n, us, vs)
		g := New(n)
		g.SetEdges(n, us, vs)
		sameGraph(t, "fresh", g, want)
		reused.SetEdges(n, us, vs)
		sameGraph(t, "reused", reused, want)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSetEdgesThenMutate: AddEdge and RemoveEdge after a bulk build behave
// as on the one-by-one graph and never disturb another vertex's list,
// although every list shares one arena.
func TestSetEdgesThenMutate(t *testing.T) {
	t.Parallel()
	src := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.Intn(40)
		us, vs := randomEdgeList(n, src.Intn(3*n), src)
		g, want := New(n), oneByOne(n, us, vs)
		g.SetEdges(n, us, vs)
		for op := 0; op < 4*n; op++ {
			u, v := src.Intn(n), src.Intn(n)
			if u == v {
				continue
			}
			if src.Bool() {
				g.AddEdge(u, v)
				want.AddEdge(u, v)
			} else {
				g.RemoveEdge(u, v)
				want.RemoveEdge(u, v)
			}
		}
		sameGraph(t, "after mutation", g, want)
	}
}

func TestSetEdgesPanics(t *testing.T) {
	t.Parallel()
	for name, build := range map[string]func(){
		"self-loop":    func() { New(3).SetEdges(3, []int32{0, 2}, []int32{1, 2}) },
		"out of range": func() { New(3).SetEdges(3, []int32{0}, []int32{3}) },
		"negative":     func() { New(3).SetEdges(3, []int32{-1}, []int32{0}) },
		"unpaired":     func() { New(3).SetEdges(3, []int32{0, 1}, []int32{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetEdges did not panic", name)
				}
			}()
			build()
		}()
	}
}

func TestSetEdgesSteadyStateAllocs(t *testing.T) {
	us, vs := randomEdgeList(64, 150, rng.New(2))
	g := New(64)
	g.SetEdges(64, us, vs)
	if avg := testing.AllocsPerRun(100, func() { g.SetEdges(64, us, vs) }); avg != 0 {
		t.Errorf("SetEdges steady state allocates %v per call, want 0", avg)
	}
}

// goldHash folds graphs' edge lists (and other words) into one FNV-1a
// hash.
type goldHash struct{ h uint64 }

func (e *goldHash) word(w uint64) {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], e.h)
	binary.LittleEndian.PutUint64(buf[8:], w)
	h.Write(buf[:])
	e.h = h.Sum64()
}

func (e *goldHash) graph(g *Graph) {
	e.word(uint64(g.M()))
	for _, ed := range g.Edges() {
		e.word(uint64(ed[0])<<32 | uint64(ed[1]))
	}
}

// TestRandomBuildersGolden pins the random builders' graphs (and
// RandomTree's parent arrays) edge for edge across implementation
// changes; the hashes were recorded with the builders that added one
// edge at a time.
func TestRandomBuildersGolden(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		n                   int
		bounded, conn, tree uint64
	}{
		{0, 0x66f820fe40b0e7e6, 0x3f64e15d2bbc46d1, 0x88201fb960ff6465},
		{1, 0x66f820fe40b0e7e6, 0x3f64e15d2bbc46d1, 0x2479a6c37e291f53},
		{2, 0x00ada4ff169313e6, 0xcc14c08e80ed1f44, 0xaa20161dca1db22b},
		{3, 0x4ad0d7e35e9050d0, 0xc8012583be5be7dd, 0xe942ece2e19db34c},
		{17, 0x0a2735bdf6108e19, 0xac940daabc5acb60, 0x16dbbe2783f9fe68},
		{100, 0xa9aee9f9c81e31bc, 0x1135a0951519628b, 0x5e43ef137a84abe4},
		{1000, 0x19134717fca35360, 0x3c6817cca33e881a, 0xba89ed162ada4114},
	} {
		var b, c, tr goldHash
		for _, diam := range []int{0, 1, 2, 3, 5, 8} {
			for _, extra := range []int{0, tc.n / 2, 2 * tc.n} {
				for seed := uint64(1); seed <= 4; seed++ {
					b.graph(BoundedDiameterRandom(tc.n, diam, extra, rng.New(seed)))
				}
			}
		}
		for _, extra := range []int{0, 1, tc.n, 3 * tc.n} {
			c.graph(RandomConnected(tc.n, extra, rng.New(uint64(tc.n+extra))))
		}
		g, parent := RandomTree(tc.n, rng.New(uint64(tc.n)+9))
		tr.graph(g)
		for _, p := range parent {
			tr.word(uint64(p))
		}
		if b.h != tc.bounded || c.h != tc.conn || tr.h != tc.tree {
			t.Errorf("n=%d: hashes bounded %#016x conn %#016x tree %#016x, want %#016x %#016x %#016x",
				tc.n, b.h, c.h, tr.h, tc.bounded, tc.conn, tc.tree)
		}
	}
}
