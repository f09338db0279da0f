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
	g := New(n)
	if n <= 1 {
		return g
	}
	addRandomTree(g, src, nil)
	for k := 0; k < extraEdges; k++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// RandomTree returns RandomConnected(n, 0, src) — the same draws from src,
// the same graph — together with each vertex's parent in that spanning
// tree (-1 at the root). Edge (u, v) is a tree edge iff
// parent[u] == v || parent[v] == u, an O(1) membership test.
func RandomTree(n int, src *rng.Source) (*Graph, []int32) {
	g := New(n)
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = -1
	}
	if n > 1 {
		addRandomTree(g, src, parent)
	}
	return g, parent
}

// addRandomTree adds a random spanning tree to g: each vertex, in random
// order, attaches to a uniformly random earlier vertex, which is recorded
// in parent when parent is non-nil.
func addRandomTree(g *Graph, src *rng.Source, parent []int32) {
	order := src.Perm(g.n)
	for i := 1; i < g.n; i++ {
		p := order[src.Intn(i)]
		g.AddEdge(order[i], p)
		if parent != nil {
			parent[order[i]] = int32(p)
		}
	}
}

// BoundedDiameterRandom returns a connected random graph whose static
// diameter is at most targetDiam: a random tree of depth <= targetDiam/2
// around a random center, plus extra random edges. It gives the upper-bound
// experiments a family of low-diameter, size-N topologies.
func BoundedDiameterRandom(n, targetDiam, extraEdges int, src *rng.Source) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	depth := targetDiam / 2
	if depth < 1 {
		depth = 1
	}
	// Layered random tree: layer 0 is the center; vertex i in layer l
	// attaches to a random vertex in layer l-1.
	order := src.Perm(n)
	layers := make([][]int, depth+1)
	layers[0] = []int{order[0]}
	for i := 1; i < n; i++ {
		l := 1 + src.Intn(depth)
		for layers[l-1] == nil || len(layers[l-1]) == 0 {
			l--
		}
		parent := layers[l-1][src.Intn(len(layers[l-1]))]
		g.AddEdge(order[i], parent)
		layers[l] = append(layers[l], order[i])
	}
	for k := 0; k < extraEdges; k++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}
