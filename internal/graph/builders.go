package graph

import "dyndiam/internal/rng"

// Line returns the path 0-1-2-...-(n-1).
func Line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Ring returns the cycle over n >= 3 vertices (for n < 3 it degrades to Line).
func Ring(n int) *Graph {
	g := Line(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Star returns the star with center 0 and leaves 1..n-1.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// RandomConnected returns a connected graph on n vertices with roughly
// extraEdges edges beyond a random spanning tree, drawn from src.
func RandomConnected(n, extraEdges int, src *rng.Source) *Graph {
	if n <= 1 {
		return New(n)
	}
	us, vs := randomTree(n, max(extraEdges, 0), src, nil)
	for k := 0; k < extraEdges; k++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			us = append(us, int32(u))
			vs = append(vs, int32(v))
		}
	}
	return fromEdges(n, us, vs)
}

// RandomTree returns RandomConnected(n, 0, src) — the same draws from src,
// the same graph — together with each vertex's parent in that spanning
// tree (-1 at the root). Edge (u, v) is a tree edge iff
// parent[u] == v || parent[v] == u, an O(1) membership test.
func RandomTree(n int, src *rng.Source) (*Graph, []int32) {
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = -1
	}
	if n <= 1 {
		return New(n), parent
	}
	us, vs := randomTree(n, 0, src, parent)
	return fromEdges(n, us, vs), parent
}

// fromEdges returns the graph SetEdges builds from the edge list, without
// the build scratch: a graph built once need not keep it.
func fromEdges(n int, us, vs []int32) *Graph {
	g := New(n)
	g.SetEdges(n, us, vs)
	g.off, g.tmp = nil, nil
	return g
}

// randomTree draws a random spanning tree over n > 1 vertices: each
// vertex, in random order, attaches to a uniformly random earlier vertex,
// which is recorded in parent when parent is non-nil. It returns the n-1
// tree edges as endpoint lists with room for spare more.
func randomTree(n, spare int, src *rng.Source, parent []int32) (us, vs []int32) {
	order := src.Perm(n)
	us = make([]int32, 0, n-1+spare)
	vs = make([]int32, 0, n-1+spare)
	for i := 1; i < n; i++ {
		p := order[src.Intn(i)]
		us = append(us, int32(order[i]))
		vs = append(vs, int32(p))
		if parent != nil {
			parent[order[i]] = int32(p)
		}
	}
	return us, vs
}

// BoundedDiameterRandom returns a connected random graph whose static
// diameter is at most targetDiam: a random tree of depth <= targetDiam/2
// around a random center, plus extra random edges. It gives the upper-bound
// experiments a family of low-diameter, size-N topologies.
func BoundedDiameterRandom(n, targetDiam, extraEdges int, src *rng.Source) *Graph {
	var b BoundedDiameterBuilder
	return b.Build(n, targetDiam, extraEdges, src)
}

// BoundedDiameterBuilder draws BoundedDiameterRandom graphs into one Graph
// it keeps, reusing that graph and its scratch (permutation, tree layers,
// edge lists) on every Build, so a topology redrawn every round stops
// allocating once the buffers fit. The zero value is ready to use. A
// builder is not safe for concurrent use.
type BoundedDiameterBuilder struct {
	g      *Graph
	order  []int
	layers [][]int32
	us, vs []int32
}

// Build returns BoundedDiameterRandom(n, targetDiam, extraEdges, src) — the
// same draws from src, the same graph — rebuilt in the builder's graph,
// which stays valid until the next Build.
func (b *BoundedDiameterBuilder) Build(n, targetDiam, extraEdges int, src *rng.Source) *Graph {
	if b.g == nil {
		b.g = New(n)
	}
	if n <= 1 {
		b.g.SetEdges(n, nil, nil)
		return b.g
	}
	depth := targetDiam / 2
	if depth < 1 {
		depth = 1
	}
	// Layered random tree: layer 0 is the center; vertex i in layer l
	// attaches to a random vertex in layer l-1.
	if cap(b.order) < n {
		b.order = make([]int, n)
	}
	order := src.PermInto(b.order[:n])
	for len(b.layers) <= depth {
		b.layers = append(b.layers, nil)
	}
	layers := b.layers[:depth+1]
	for l := range layers {
		layers[l] = layers[l][:0]
	}
	layers[0] = append(layers[0], int32(order[0]))
	us, vs := b.us[:0], b.vs[:0]
	for i := 1; i < n; i++ {
		l := 1 + src.Intn(depth)
		for len(layers[l-1]) == 0 {
			l--
		}
		parent := layers[l-1][src.Intn(len(layers[l-1]))]
		us = append(us, int32(order[i]))
		vs = append(vs, parent)
		layers[l] = append(layers[l], int32(order[i]))
	}
	for k := 0; k < extraEdges; k++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			us = append(us, int32(u))
			vs = append(vs, int32(v))
		}
	}
	b.us, b.vs = us, vs
	b.g.SetEdges(n, us, vs)
	return b.g
}
