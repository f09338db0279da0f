package graph

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dyndiam/internal/rng"
)

func TestAddRemoveHasEdge(t *testing.T) {
	t.Parallel()
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) missing after AddEdge")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	g.AddEdge(0, 1) // duplicate collapses
	if g.M() != 2 {
		t.Errorf("M after duplicate add = %d, want 2", g.M())
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Error("edge (0,1) present after RemoveEdge")
	}
	g.RemoveEdge(0, 3) // removing a missing edge is a no-op
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(2,2) did not panic")
		}
	}()
	New(3).AddEdge(2, 2)
}

func TestOutOfRangePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	New(3).AddEdge(0, 3)
}

func TestNeighborsAndDegree(t *testing.T) {
	t.Parallel()
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Errorf("center degree = %d, want 4", g.Degree(0))
	}
	nb := g.Neighbors(0, nil)
	sort.Ints(nb)
	want := []int{1, 2, 3, 4}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v", nb, want)
		}
	}
	count := 0
	g.ForEachNeighbor(3, func(u int) { count++ })
	if count != 1 {
		t.Errorf("leaf 3 has %d neighbors, want 1", count)
	}
}

func TestBFSOnLine(t *testing.T) {
	t.Parallel()
	g := Line(6)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Errorf("dist[%d] = %d, want %d", i, d, i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	t.Parallel()
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable dist = %v, want -1s", dist[2:])
	}
}

func TestConnected(t *testing.T) {
	t.Parallel()
	cases := []struct {
		g    *Graph
		want bool
	}{
		{Line(5), true},
		{Ring(5), true},
		{Star(5), true},
		{Complete(4), true},
		{New(1), true},
		{New(0), true},
		{New(2), false},
	}
	for i, c := range cases {
		if got := c.g.Connected(); got != c.want {
			t.Errorf("case %d: Connected = %v, want %v", i, got, c.want)
		}
	}
	g := Line(5)
	g.RemoveEdge(2, 3)
	if g.Connected() {
		t.Error("cut line still reported connected")
	}
}

func TestConnectedOver(t *testing.T) {
	t.Parallel()
	g := Line(6)
	g.RemoveEdge(2, 3)
	if !g.ConnectedOver([]int{0, 1, 2}) {
		t.Error("left segment should be connected over itself")
	}
	if g.ConnectedOver([]int{1, 2, 3}) {
		t.Error("segment spanning the cut should be disconnected")
	}
	if !g.ConnectedOver([]int{4}) || !g.ConnectedOver(nil) {
		t.Error("trivial sets must be connected")
	}
}

func TestDiameters(t *testing.T) {
	t.Parallel()
	cases := []struct {
		g    *Graph
		want int
	}{
		{Line(6), 5},
		{Ring(6), 3},
		{Star(8), 2},
		{Complete(5), 1},
		{New(1), 0},
		{New(0), 0},
	}
	for i, c := range cases {
		if got := c.g.StaticDiameter(); got != c.want {
			t.Errorf("case %d: StaticDiameter = %d, want %d", i, got, c.want)
		}
	}
	if New(2).StaticDiameter() != -1 {
		t.Error("disconnected diameter should be -1")
	}
}

func TestUnion(t *testing.T) {
	t.Parallel()
	a := Line(4)
	b := New(6)
	b.AddEdge(3, 5)
	u := Union(a, b)
	if u.N() != 6 {
		t.Fatalf("union N = %d, want 6", u.N())
	}
	if !u.HasEdge(0, 1) || !u.HasEdge(3, 5) {
		t.Error("union missing edges from operands")
	}
	if u.M() != a.M()+b.M() {
		t.Errorf("union M = %d, want %d", u.M(), a.M()+b.M())
	}
}

func TestCloneIsDeep(t *testing.T) {
	t.Parallel()
	g := Ring(5)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("mutating clone changed original")
	}
	g.AddEdge(0, 2)
	if c.HasEdge(0, 2) {
		t.Error("mutating original changed clone")
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := int(nRaw%200) + 2
		extra := int(extraRaw % 50)
		g := RandomConnected(n, extra, rng.New(seed))
		return g.N() == n && g.Connected() && g.M() >= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRandomTreeMatchesRandomConnected: RandomTree draws the same tree as
// RandomConnected(n, 0, ·), and its parent array names exactly the tree's
// edges.
func TestRandomTreeMatchesRandomConnected(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 2, 3, 17, 500} {
		g, parent := RandomTree(n, rng.New(uint64(n)))
		want := RandomConnected(n, 0, rng.New(uint64(n)))
		if !reflect.DeepEqual(g.Edges(), want.Edges()) {
			t.Fatalf("n=%d: RandomTree's graph differs from RandomConnected's", n)
		}
		roots := 0
		for v, p := range parent {
			if p < 0 {
				roots++
			} else if !g.HasEdge(v, int(p)) {
				t.Fatalf("n=%d: parent edge %d-%d not in the tree", n, v, p)
			}
		}
		if n > 0 && (roots != 1 || g.M() != n-1) {
			t.Fatalf("n=%d: %d roots, %d edges; want 1 root, %d edges", n, roots, g.M(), n-1)
		}
	}
}

func TestBoundedDiameterRandom(t *testing.T) {
	t.Parallel()
	src := rng.New(11)
	for _, n := range []int{10, 100, 500} {
		for _, d := range []int{2, 4, 8} {
			g := BoundedDiameterRandom(n, d, n/4, src)
			if !g.Connected() {
				t.Fatalf("n=%d d=%d: disconnected", n, d)
			}
			if got := g.StaticDiameter(); got > d {
				t.Errorf("n=%d target=%d: diameter %d exceeds target", n, d, got)
			}
		}
	}
}

func TestEdgesMatchesHasEdge(t *testing.T) {
	t.Parallel()
	g := RandomConnected(30, 20, rng.New(3))
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges returned %d, M = %d", len(edges), g.M())
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not normalized", e)
		}
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("Edges lists missing edge %v", e)
		}
	}
}

func BenchmarkBFS(b *testing.B) {
	g := RandomConnected(2000, 4000, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % 2000)
	}
}

func BenchmarkRandomConnected(b *testing.B) {
	src := rng.New(1)
	for i := 0; i < b.N; i++ {
		RandomConnected(1000, 500, src)
	}
}
