package dynet

import (
	"dyndiam/internal/faults"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// Interned fault-event names, resolved once so the injection hot path
// never touches the interner lock.
var (
	faultNameDrop    = obs.Intern("drop")
	faultNameDup     = obs.Intern("dup")
	faultNameCorrupt = obs.Intern("corrupt")
	faultNameCrash   = obs.Intern("crash")
	faultNameRejoin  = obs.Intern("rejoin")
	faultNameEdgeCut = obs.Intern("edge_cut")
)

// faultState is the per-execution scratch of an engine running with a
// fault Plan: the down-node mask, the perturbed-topology arena, and the
// pre-resolved metric handles. It exists only when Plan.Enabled() — the
// nil-plan round loop never touches it, keeping the clean path on the
// zero-allocation contract pinned by the alloc regression tests.
type faultState struct {
	plan *faults.Plan
	sink obs.Sink

	nodeFaults     bool
	edgeFaults     bool
	deliveryFaults bool

	down      []bool
	perturbed graph.Graph // arena reused across rounds by CopyFrom

	cDrop, cDup, cCorrupt  *obs.Counter
	cCrash, cRejoin        *obs.Counter
	cDownRounds, cEdgesCut *obs.Counter
}

// newFaultState builds the scratch for one execution. Counters are
// created eagerly (nil-safe when metrics are off) so every faulty run
// exports the full fault-counter family, fired or not.
func newFaultState(plan *faults.Plan, sink obs.Sink, metrics *obs.Registry, n int) *faultState {
	fs := &faultState{
		plan:           plan,
		sink:           sink,
		nodeFaults:     plan.HasNodeFaults(),
		edgeFaults:     plan.HasEdgeFaults(),
		deliveryFaults: plan.HasDeliveryFaults(),
		cDrop:          metrics.Counter("faults_dropped_total"),
		cDup:           metrics.Counter("faults_duplicated_total"),
		cCorrupt:       metrics.Counter("faults_corrupted_total"),
		cCrash:         metrics.Counter("faults_crashes_total"),
		cRejoin:        metrics.Counter("faults_rejoins_total"),
		cDownRounds:    metrics.Counter("faults_down_node_rounds_total"),
		cEdgesCut:      metrics.Counter("faults_edges_cut_total"),
	}
	if fs.nodeFaults {
		fs.down = make([]bool, n)
	}
	return fs
}

// emit sends one fault event when an observer is attached. All fault
// emissions happen on the coordinator goroutine (beginRound, perturb,
// and collect are never parallelized), matching the Sink contract.
func (fs *faultState) emit(name obs.Key, r, node, peer int, detail int64) {
	if fs.sink == nil {
		return
	}
	fs.sink.Emit(obs.Event{
		Kind:  obs.KindFault,
		Round: int32(r),
		Node:  int32(node),
		A:     int64(peer),
		B:     detail,
		Name:  name,
	})
}

// beginRound advances the crash schedule to round r, emitting crash and
// rejoin transitions. It must be called before the step phase so down
// nodes are frozen for the whole round.
func (fs *faultState) beginRound(r int) {
	if !fs.nodeFaults {
		return
	}
	for v := range fs.down {
		d := fs.plan.Down(r, v)
		if d != fs.down[v] {
			fs.down[v] = d
			if d {
				fs.cCrash.Add(1)
				fs.emit(faultNameCrash, r, v, -1, 0)
			} else {
				fs.cRejoin.Add(1)
				fs.emit(faultNameRejoin, r, v, -1, 0)
			}
		}
		if d {
			fs.cDownRounds.Add(1)
		}
	}
}

// perturb applies the round's edge cuts to a scratch copy of the
// adversary's topology and returns it. The adversary's own graph is
// checked for the model's connectivity obligation before this runs; the
// perturbed graph may legitimately be disconnected — that is the fault.
func (fs *faultState) perturb(r int, g *graph.Graph) *graph.Graph {
	fs.perturbed.CopyFrom(g)
	n := g.N()
	for u := 0; u < n; u++ {
		for _, v := range g.Adj(u) {
			if int32(u) < v && fs.plan.CutEdge(r, u, int(v)) {
				fs.perturbed.RemoveEdge(u, int(v))
				fs.cEdgesCut.Add(1)
				fs.emit(faultNameEdgeCut, r, u, int(v), 0)
			}
		}
	}
	return &fs.perturbed
}

// collect is the faulty twin of collect: it assembles each receiving
// node's inbox while applying per-delivery drops, duplications, and bit
// corruptions, and skips down receivers entirely (their messages are
// lost to the crash, not to the delivery plan).
func (fs *faultState) collect(r int, g *graph.Graph, actions []Action, outgoing []Message, inboxes [][]Message) {
	for v := range inboxes {
		inbox := inboxes[v][:0]
		if actions[v] == Receive && !(fs.down != nil && fs.down[v]) {
			for _, u := range g.Adj(v) {
				if actions[u] != Send {
					continue
				}
				d := fs.plan.Delivery(r, int(u), v, outgoing[u].NBits)
				if d.Drop {
					fs.cDrop.Add(1)
					fs.emit(faultNameDrop, r, v, int(u), 0)
					continue
				}
				msg := outgoing[u]
				if d.FlipBit >= 0 {
					msg = corruptCopy(msg, d.FlipBit)
					fs.cCorrupt.Add(1)
					fs.emit(faultNameCorrupt, r, v, int(u), int64(d.FlipBit))
				}
				inbox = append(inbox, msg)
				if d.Dup {
					inbox = append(inbox, msg)
					fs.cDup.Add(1)
					fs.emit(faultNameDup, r, v, int(u), 0)
				}
			}
			SortByFrom(inbox)
		}
		inboxes[v] = inbox
	}
}

// corruptCopy returns msg with bit flipped in a private copy of the
// payload, so the sender's buffer — shared by every other receiver —
// stays intact. Corruption is rare, so the copy allocates per fault
// rather than complicating the engine's arena story.
func corruptCopy(msg Message, bit int) Message {
	p := append([]byte(nil), msg.Payload...) //lint:allow hotpathalloc corruption is rare; the copy is the documented per-fault cost
	faults.FlipPayloadBit(p, bit)
	msg.Payload = p
	return msg
}
