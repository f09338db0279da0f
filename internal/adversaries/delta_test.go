package adversaries

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

func deltaGraphsEqual(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		pa, pb := a.Adj(v), b.Adj(v)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
	}
	return true
}

// TestDeltaChurnPatternsAgree pins the DeltaAdversary contract: a fresh
// instance driven by Topology every round and another driven by
// Topology(1)+Diff produce identical topology sequences.
func TestDeltaChurnPatternsAgree(t *testing.T) {
	for _, tc := range []struct{ n, extra, rewires int }{
		{2, 0, 0}, {8, 3, 1}, {40, 10, 4}, {100, 30, 30}, {64, 5, 50},
	} {
		full := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 99)
		delta := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 99)
		actions := make([]dynet.Action, tc.n)

		snap := graph.New(tc.n)
		var d dynet.EdgeDiff
		for r := 1; r <= 20; r++ {
			want := full.Topology(r, actions)
			if r == 1 {
				snap.CopyFrom(delta.Topology(r, actions))
			} else {
				d.Reset()
				delta.Diff(r, actions, &d)
				if d.Len() > 2*tc.rewires {
					t.Fatalf("n=%d round %d: %d diff ops for %d rewires", tc.n, r, d.Len(), tc.rewires)
				}
				d.Apply(snap)
			}
			if !deltaGraphsEqual(snap, want) {
				t.Fatalf("n=%d round %d: diff pattern diverges from topology pattern", tc.n, r)
			}
			if !want.Connected() {
				t.Fatalf("n=%d round %d: churned topology disconnected", tc.n, r)
			}
		}
	}
}

// TestDeltaChurnDeterministic: same parameters, same sequence — twice.
func TestDeltaChurnDeterministic(t *testing.T) {
	a := NewDeltaChurn(32, 8, 3, 5)
	b := NewDeltaChurn(32, 8, 3, 5)
	actions := make([]dynet.Action, 32)
	for r := 1; r <= 12; r++ {
		if !deltaGraphsEqual(a.Topology(r, actions), b.Topology(r, actions)) {
			t.Fatalf("round %d: two same-seed instances diverge", r)
		}
	}
}

// deltaScriptHash hashes DeltaChurn's base edge list and every Diff op of
// rounds 2..rounds with FNV-1a, so any change to the emitted scripts —
// one op more, less, reordered or flipped — changes the hash.
func deltaScriptHash(n, extra, rewires int, seed uint64, rounds int) uint64 {
	c := NewDeltaChurn(n, extra, rewires, seed)
	actions := make([]dynet.Action, n)
	h := fnv.New64a()
	var buf [9]byte
	put := func(u, v int, del bool) {
		binary.LittleEndian.PutUint32(buf[0:], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		buf[8] = 0
		if del {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
	for _, e := range c.Topology(1, actions).Edges() {
		put(e[0], e[1], false)
	}
	var d dynet.EdgeDiff
	for r := 2; r <= rounds; r++ {
		d.Reset()
		c.Diff(r, actions, &d)
		put(-1, r, false) // round separator
		for _, op := range d.Ops {
			put(int(op.U), int(op.V), op.Del)
		}
	}
	return h.Sum64()
}

// TestDeltaChurnScriptGolden pins DeltaChurn's edit scripts byte for byte
// across implementation changes. {2000,250,31} and {5,40,40} force slots
// landing on tree edges and on each other, so the multiplicity rules are
// exercised, not only the common fresh-edge case.
func TestDeltaChurnScriptGolden(t *testing.T) {
	for _, tc := range []struct {
		n, extra, rewires int
		want              uint64
	}{
		{8, 20, 6, 0x8fb8c2fd9052c9d1},
		{100, 30, 30, 0x3e290694115b7716},
		{2000, 250, 31, 0x461c85934bd5f964},
		{5, 40, 40, 0x0ce4741921129bf4},
	} {
		if got := deltaScriptHash(tc.n, tc.extra, tc.rewires, 7, 300); got != tc.want {
			t.Errorf("DeltaChurn(%d,%d,%d) seed 7: script hash %#x, want %#x", tc.n, tc.extra, tc.rewires, got, tc.want)
		}
	}
}

// TestDeltaChurnTopologyAfterDiff: Diff leaves the adversary's own graph
// alone, so a Topology call after Diff (outside the DeltaAdversary
// contract) must rebuild it — and then keep editing it incrementally.
func TestDeltaChurnTopologyAfterDiff(t *testing.T) {
	for _, tc := range []struct{ n, extra, rewires int }{
		{8, 20, 6}, {100, 30, 30}, {5, 40, 40},
	} {
		ref := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 7)
		mixed := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 7)
		actions := make([]dynet.Action, tc.n)
		ref.Topology(1, actions)
		mixed.Topology(1, actions)
		var d dynet.EdgeDiff
		for r := 2; r <= 30; r++ {
			want := ref.Topology(r, actions)
			if r%5 > 1 {
				d.Reset()
				mixed.Diff(r, actions, &d)
				continue
			}
			// Rounds 5, 6, 10, 11, ...: Topology right after a Diff,
			// then once more on the rebuilt graph.
			if got := mixed.Topology(r, actions); !deltaGraphsEqual(got, want) {
				t.Fatalf("%+v round %d: Topology after Diff diverges", tc, r)
			}
		}
	}
}
