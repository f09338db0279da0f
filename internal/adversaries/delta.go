package adversaries

import (
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// DeltaChurn is the churn family restated as a dynet.DeltaAdversary: a
// persistent random spanning tree plus `extra` slot edges, of which
// `rewires` are re-sampled every round. Because only the rewired slots
// change, round r > 1 is naturally an O(rewires) edge-op script — the
// flood fast path applies it to one mutable CSR snapshot instead of
// copying the whole graph, so per-round topology cost scales with churn.
//
// Edge multiplicity is tracked so overlapping slots (or a slot landing on
// a tree edge) never emit a premature deletion: a Del op appears only when
// an edge's multiplicity reaches zero, an Add only when it first becomes
// positive. The tree contributes a permanent multiplicity, making every
// round's topology connected unconditionally. Tree membership is read off
// the tree's parent array, so the multiplicity table holds slot edges only
// and is sized by `extra`, not by n; a rewire costs two table updates and
// no graph edit on the Diff pattern.
//
// Per-round randomness comes from a round-keyed split of the seed, so two
// instances built with the same parameters produce identical topology
// sequences regardless of which DeltaAdversary calling pattern drives
// them — the package tests pin Topology-vs-Diff equivalence.
type DeltaChurn struct {
	n       int
	parent  []int32 // spanning-tree parent per vertex; -1 at the root
	slots   [][2]int
	rewires int
	src     *rng.Source
	mult    map[int64]int32 // multiplicity of each non-tree slot edge
	cur     *graph.Graph    // the topology on the Topology pattern
	stale   bool            // Diff advanced the slots without editing cur
}

// NewDeltaChurn builds a delta-encoding churn adversary over n nodes with
// extra random slot edges, of which rewires are re-sampled each round.
func NewDeltaChurn(n, extra, rewires int, seed uint64) *DeltaChurn {
	if n < 2 {
		extra, rewires = 0, 0
	}
	src := rng.New(seed)
	tree, parent := graph.RandomTree(n, src.Split('t'))
	c := &DeltaChurn{
		n: n, parent: parent, rewires: rewires, src: src,
		slots: make([][2]int, 0, extra), mult: make(map[int64]int32, extra), cur: tree,
	}
	ssrc := src.Split('s')
	for i := 0; i < extra; i++ {
		e := c.randomEdge(ssrc)
		c.slots = append(c.slots, e)
		if c.acquire(e) {
			c.cur.AddEdge(e[0], e[1])
		}
	}
	return c
}

// randomEdge samples a uniform non-loop edge, normalized to u < v.
func (c *DeltaChurn) randomEdge(src *rng.Source) [2]int {
	for {
		u, v := src.Intn(c.n), src.Intn(c.n)
		if u != v {
			if u > v {
				u, v = v, u
			}
			return [2]int{u, v}
		}
	}
}

func (c *DeltaChurn) key(e [2]int) int64 { return int64(e[0])*int64(c.n) + int64(e[1]) }

func (c *DeltaChurn) isTree(e [2]int) bool {
	return c.parent[e[0]] == int32(e[1]) || c.parent[e[1]] == int32(e[0])
}

// acquire places one slot on e and reports whether e just entered the
// topology. Slots on tree edges are not counted: the tree keeps them.
func (c *DeltaChurn) acquire(e [2]int) bool {
	if c.isTree(e) {
		return false
	}
	k := c.key(e)
	m := c.mult[k]
	c.mult[k] = m + 1
	return m == 0
}

// release removes one slot from e and reports whether e just left the
// topology.
func (c *DeltaChurn) release(e [2]int) bool {
	if c.isTree(e) {
		return false
	}
	k := c.key(e)
	m := c.mult[k] - 1
	if m == 0 {
		delete(c.mult, k)
		return true
	}
	c.mult[k] = m
	return false
}

// advance re-samples round r's slots. Each edge that leaves or enters the
// topology is applied to g and appended to d, whichever are non-nil.
// Rounds r <= 1 are the base topology and change nothing.
func (c *DeltaChurn) advance(r int, g *graph.Graph, d *dynet.EdgeDiff) {
	if r <= 1 || len(c.slots) == 0 {
		return
	}
	rsrc := c.src.Split(uint64(r))
	for i := 0; i < c.rewires; i++ {
		si := rsrc.Intn(len(c.slots))
		old, e := c.slots[si], c.randomEdge(rsrc)
		c.slots[si] = e
		if c.release(old) {
			if g != nil {
				g.RemoveEdge(old[0], old[1])
			}
			if d != nil {
				d.Del(old[0], old[1])
			}
		}
		if c.acquire(e) {
			if g != nil {
				g.AddEdge(e[0], e[1])
			}
			if d != nil {
				d.Add(e[0], e[1])
			}
		}
	}
}

// Topology implements dynet.Adversary. Called after Diff (which the
// DeltaAdversary contract does not ask of it), it rebuilds the topology
// from the tree and the current slots: correct, only slow.
func (c *DeltaChurn) Topology(r int, _ []dynet.Action) *graph.Graph {
	if !c.stale {
		c.advance(r, c.cur, nil)
		return c.cur
	}
	c.advance(r, nil, nil)
	c.cur.Reset()
	for v, p := range c.parent {
		if p >= 0 {
			c.cur.AddEdge(v, int(p))
		}
	}
	for _, e := range c.slots {
		c.cur.AddEdge(e[0], e[1])
	}
	c.stale = false
	return c.cur
}

// Diff implements dynet.DeltaAdversary. The consumer applies d to its own
// snapshot, so Diff leaves the adversary's graph untouched.
func (c *DeltaChurn) Diff(r int, _ []dynet.Action, d *dynet.EdgeDiff) {
	c.stale = true
	c.advance(r, nil, d)
}
