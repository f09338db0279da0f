package adversaries

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

func collect(t *testing.T, adv dynet.Adversary, n, rounds int) []*graph.Graph {
	t.Helper()
	actions := make([]dynet.Action, n)
	out := make([]*graph.Graph, rounds)
	for r := 1; r <= rounds; r++ {
		g := adv.Topology(r, actions)
		if g.N() != n {
			t.Fatalf("round %d: %d vertices, want %d", r, g.N(), n)
		}
		if !g.Connected() {
			t.Fatalf("round %d: disconnected topology", r)
		}
		// Adversaries may reuse the returned graph across calls; clone
		// to hold the round's topology past the next Topology call.
		out[r-1] = g.Clone()
	}
	return out
}

func TestRandomConnectedAlwaysConnected(t *testing.T) {
	collect(t, RandomConnected(30, 10, 1), 30, 50)
}

func TestBoundedDiameterRespectsBound(t *testing.T) {
	graphs := collect(t, BoundedDiameter(40, 6, 10, 2), 40, 30)
	for r, g := range graphs {
		if d := g.StaticDiameter(); d > 6 {
			t.Errorf("round %d: static diameter %d > 6", r+1, d)
		}
	}
}

func TestRotatingStarDynamicDiameter(t *testing.T) {
	const n = 10
	graphs := collect(t, RotatingStar(n), n, 5*n)
	d, exact := dynet.DynamicDiameter(graphs)
	if !exact || d != n-1 {
		t.Errorf("rotating star: dynamic diameter %d (exact %v), want %d", d, exact, n-1)
	}
	for r, g := range graphs {
		if g.StaticDiameter() != 2 {
			t.Errorf("round %d: static diameter %d, want 2", r+1, g.StaticDiameter())
		}
	}
}

func TestChurnKeepsSpanningTree(t *testing.T) {
	c := NewChurn(25, 15, 3, 4)
	graphs := collect(t, c, 25, 40)
	// The tree edges persist; edge sets still change over time.
	changed := false
	for r := 1; r < len(graphs); r++ {
		if graphs[r].M() != graphs[r-1].M() {
			changed = true
		} else {
			for _, e := range graphs[r-1].Edges() {
				if !graphs[r].HasEdge(e[0], e[1]) {
					changed = true
				}
			}
		}
	}
	if !changed {
		t.Error("churn adversary never changed the topology")
	}
}

func TestStallerBookkeeping(t *testing.T) {
	const n = 8
	s := NewStaller(n, 0)
	// All nodes receive: gate exists (node 0), nothing crosses.
	actions := make([]dynet.Action, n)
	g := s.Topology(1, actions)
	if !g.Connected() {
		t.Fatal("staller produced disconnected graph")
	}
	count := 0
	for _, inf := range s.informed {
		if inf {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("informed %d nodes while gated, want 1", count)
	}
	// Node 0 sends and its attached uninformed neighbor receives: concede.
	actions[0] = dynet.Send
	g = s.Topology(2, actions)
	if !g.Connected() {
		t.Fatal("disconnected after concession round")
	}
	count = 0
	for _, inf := range s.informed {
		if inf {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("informed %d nodes after forced concession, want 2", count)
	}
}

// TestBoundedDiameterGolden pins BoundedDiameter's per-round topologies
// edge for edge, now that one graph is redrawn in place every round; the
// hashes were recorded when every round built a fresh graph.
func TestBoundedDiameterGolden(t *testing.T) {
	for _, tc := range []struct {
		n, d, extra int
		seed        uint64
		want        uint64
	}{
		{2, 2, 1, 3, 0x3a4055dacccd04d9},
		{9, 2, 4, 5, 0xcf66b9f2b6f6ab26},
		{40, 6, 20, 2, 0x6b9d8b938b395f51},
		{300, 4, 150, 7, 0x2d20d968b6085bac},
		{64, 1, 0, 1, 0x8b5675f87cf0aa79},
	} {
		adv := BoundedDiameter(tc.n, tc.d, tc.extra, tc.seed)
		actions := make([]dynet.Action, tc.n)
		h := fnv.New64a()
		var buf [8]byte
		for r := 1; r <= 60; r++ {
			g := adv.Topology(r, actions)
			binary.LittleEndian.PutUint32(buf[0:], uint32(r))
			binary.LittleEndian.PutUint32(buf[4:], uint32(g.M()))
			h.Write(buf[:])
			for _, e := range g.Edges() {
				binary.LittleEndian.PutUint32(buf[0:], uint32(e[0]))
				binary.LittleEndian.PutUint32(buf[4:], uint32(e[1]))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("BoundedDiameter%+v: topology hash %#016x, want %#016x", tc, got, tc.want)
		}
	}
}

// TestBoundedDiameterSteadyStateAllocs: once the first rounds have sized
// the adversary's graph and scratch, a round's topology costs one
// allocation — the round's rng.Source, which Split returns on the heap.
func TestBoundedDiameterSteadyStateAllocs(t *testing.T) {
	const n = 200
	adv := BoundedDiameter(n, 4, n/2, 9)
	actions := make([]dynet.Action, n)
	for r := 1; r <= 5; r++ {
		adv.Topology(r, actions)
	}
	r := 5
	if avg := testing.AllocsPerRun(50, func() { r++; adv.Topology(r, actions) }); avg != 1 {
		t.Errorf("BoundedDiameter.Topology allocates %v per round in steady state, want 1", avg)
	}
}
