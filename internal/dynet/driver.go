package dynet

import (
	"fmt"

	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// Round is one round as the round driver hands it to an Executor. The
// driver owns every field: Step fills Actions and Outgoing, and the
// driver sets Topology and Inboxes before Deliver.
type Round struct {
	// R is the round number, starting at 1.
	R int
	// Down marks the nodes a fault plan keeps crashed for the whole
	// round, or is nil when the plan has no node faults. A down node is
	// not stepped, commits a silent Receive, and hears nothing.
	Down []bool
	// Actions and Outgoing hold every node's commitment for the round.
	Actions  []Action
	Outgoing []Message
	// Topology is the round's graph after any edge-cut faults; Inboxes
	// holds each receiver's post-fault inbox in ascending sender order.
	Topology *graph.Graph
	Inboxes  [][]Message
}

// Executor carries out the per-node halves of the rounds Drive runs.
// Everything the model decides — bit budgets, the adversary's topology,
// faults, tracing, observability and termination — stays in the driver,
// so every executor runs the same rounds: Run's local executor steps
// machines in this process, internal/wire's coordinator steps them in
// node processes over TCP.
type Executor interface {
	// Step commits round rd.R: it fills rd.Actions and rd.Outgoing for
	// every node, with a silent Receive for each node rd.Down marks.
	Step(rd *Round) error
	// Deliver hands every up receiver its rd.Inboxes entry.
	Deliver(rd *Round) error
	// Output reports node v's output as of the last delivered round.
	Output(v int) (int64, bool)
	// Terminated reports whether the run's termination predicate holds.
	Terminated() bool
}

// Drive is the package's one round loop. It runs up to maxRounds rounds
// over n nodes whose per-node halves x executes, stopping early when x
// reports termination. Drive reads the engine's model fields (Adv,
// Budget, CheckConnectivity, Trace, Obs, Metrics, Plan); Machines,
// Workers and Terminated configure Run's local executor and are not
// consulted here. It returns an error on model violations (bit budget,
// topology size or connectivity) and passes on any error x returns.
//
// The round loop is steady-state allocation-free: inbox backing arrays
// are reused across rounds, inboxes are assembled by an in-place
// insertion sort over the already-ascending neighbor order, and the
// connectivity check runs over preallocated scratch buffers. Per-round
// allocations, if any, come from the executor or the adversary. The
// hotpathalloc rule enforces this interprocedurally; setup-phase and
// error-path lines carry documented allows.
//
//lint:hotpath
func (e *Engine) Drive(x Executor, n, maxRounds int) (*Result, error) {
	if n == 0 {
		return &Result{Done: true}, nil //lint:allow hotpathalloc empty-engine early return, not the round loop
	}
	budget := e.Budget
	if budget == 0 {
		budget = Budget(n)
	}
	res := &Result{Rounds: maxRounds}             //lint:allow hotpathalloc setup phase, before the round loop
	actions := make([]Action, n)                  //lint:allow hotpathalloc setup phase, before the round loop
	outgoing := make([]Message, n)                //lint:allow hotpathalloc setup phase, before the round loop
	inboxes := make([][]Message, n)               //lint:allow hotpathalloc setup phase, before the round loop
	check := newTopoCheck(n, e.CheckConnectivity) //lint:allow hotpathalloc setup phase, before the round loop
	rd := Round{Actions: actions, Outgoing: outgoing, Inboxes: inboxes}
	observing := e.Obs != nil
	var decided []bool
	if observing {
		decided = make([]bool, n) //lint:allow hotpathalloc setup phase, before the round loop
		for v := range decided {
			_, decided[v] = x.Output(v)
		}
	}
	sendersHist, bitsHist := roundHists(e.Metrics) //lint:allow hotpathalloc setup-phase registry lookup, amortized across the run
	var fs *faultState
	if e.Plan.Enabled() {
		fs = newFaultState(e.Plan, e.Obs, e.Metrics, n) //lint:allow hotpathalloc setup phase: fault state preallocates its round buffers
	}

	for r := 1; r <= maxRounds; r++ {
		rd.R = r
		if observing {
			e.Obs.Emit(obs.Event{Kind: obs.KindRoundStart, Round: int32(r)})
		}
		// Phase 0 (faults only): advance the crash schedule so down nodes
		// are frozen — not stepped, not sending, not receiving — for the
		// whole round.
		if fs != nil {
			fs.beginRound(r)
			rd.Down = fs.down
		}
		// Phase 1: coin flips and send/receive commitment.
		//lint:allow hotpathalloc,puritytaint executors own their per-round cost; Run's local executor is checked through its own step and deliver roots
		if err := x.Step(&rd); err != nil {
			return nil, err
		}
		roundSenders, roundBits := 0, 0
		for v := 0; v < n; v++ {
			if actions[v] == Send {
				if outgoing[v].NBits > budget {
					return nil, budgetError(v, r, outgoing[v].NBits, budget) //lint:allow hotpathalloc error path terminates the run
				}
				roundSenders++
				roundBits += outgoing[v].NBits
				if observing {
					e.Obs.Emit(obs.Event{Kind: obs.KindSend, Round: int32(r), Node: int32(v), A: int64(outgoing[v].NBits)})
				}
			}
		}
		res.Messages += roundSenders
		res.Bits += roundBits
		sendersHist.Observe(int64(roundSenders))
		bitsHist.Observe(int64(roundBits))

		// Phase 2: the adversary fixes the topology knowing the actions.
		g := e.Adv.Topology(r, actions) //lint:allow hotpathalloc adversaries own their per-round topology allocation budget
		if err := check.validate(r, g); err != nil {
			return nil, err
		}
		if fs != nil && fs.edgeFaults {
			// The adversary met its connectivity obligation above; the
			// fault layer may now legitimately disconnect the round.
			g = fs.perturb(r, g)
		}

		// Phase 3: delivery to receiving nodes.
		if fs != nil && (fs.deliveryFaults || fs.nodeFaults) {
			fs.collect(r, g, actions, outgoing, inboxes)
		} else {
			collect(g, actions, outgoing, inboxes)
		}
		rd.Topology = g
		//lint:allow hotpathalloc,puritytaint executors own their per-round cost; Run's local executor is checked through its own step and deliver roots
		if err := x.Deliver(&rd); err != nil {
			return nil, err
		}

		if e.Trace != nil {
			e.Trace.record(r, g, actions, outgoing) //lint:allow hotpathalloc tracing is opt-in; the Cloner amortizes via arenas
		}

		if observing {
			for v := range decided {
				if !decided[v] {
					if out, ok := x.Output(v); ok {
						decided[v] = true
						e.Obs.Emit(obs.Event{Kind: obs.KindDecide, Round: int32(r), Node: int32(v), A: out})
					}
				}
			}
			e.Obs.Emit(obs.Event{Kind: obs.KindRoundEnd, Round: int32(r), A: int64(roundSenders), B: int64(roundBits)})
		}

		if x.Terminated() {
			res.Rounds = r
			res.Done = true
			break
		}
	}

	res.Outputs = make([]int64, n) //lint:allow hotpathalloc post-loop result assembly
	res.Decided = make([]bool, n)  //lint:allow hotpathalloc post-loop result assembly
	for v := range res.Outputs {
		res.Outputs[v], res.Decided[v] = x.Output(v)
	}
	if !res.Done && maxRounds < 1 {
		// The loop never ran, so the predicate was never evaluated; ask
		// once. (After a full loop the last in-loop evaluation is already
		// authoritative — machines do not change between rounds.)
		res.Done = x.Terminated()
	}
	flushTotals(e.Metrics, res) //lint:allow hotpathalloc post-loop metrics flush
	return res, nil
}

// topoCheck holds the model's checks on an adversary's round topology
// and their scratch. Drive and the flood fast path both validate
// through it, so each model error text is written once.
type topoCheck struct {
	n           int
	dist, queue []int32 // connectivity scratch; nil when not checking
}

func newTopoCheck(n int, connectivity bool) topoCheck {
	c := topoCheck{n: n}
	if connectivity {
		c.dist = make([]int32, n)
		c.queue = make([]int32, n)
	}
	return c
}

// connectivity reports whether validate checks connectivity, and so reads
// the topology's adjacency.
func (c *topoCheck) connectivity() bool { return c.dist != nil }

// validate returns the model error for round r's topology g, or nil.
func (c *topoCheck) validate(r int, g *graph.Graph) error {
	if g == nil || g.N() != c.n {
		return fmt.Errorf("dynet: adversary returned topology over %v nodes, want %d", gN(g), c.n) //lint:allow hotpathalloc error path terminates the run
	}
	if c.dist != nil && !g.ConnectedInto(c.dist, c.queue) {
		return fmt.Errorf("dynet: adversary returned disconnected topology in round %d", r) //lint:allow hotpathalloc error path terminates the run
	}
	return nil
}

func gN(g *graph.Graph) interface{} {
	if g == nil {
		return "nil"
	}
	return g.N()
}

// RoundHistBounds buckets per-round sender and bit totals geometrically,
// so merged sweep registries agree on one bucket layout.
var RoundHistBounds = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// roundHists returns the per-round sender and bit histograms; both are
// nil, and Observe a no-op, when reg is nil.
func roundHists(reg *obs.Registry) (senders, bits *obs.Histogram) {
	return reg.Histogram("engine_round_senders", RoundHistBounds), reg.Histogram("engine_round_bits", RoundHistBounds)
}

// flushTotals adds one run's totals to reg's engine counters.
func flushTotals(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	reg.Counter("engine_rounds_total").Add(int64(res.Rounds))
	reg.Counter("engine_messages_total").Add(int64(res.Messages))
	reg.Counter("engine_bits_total").Add(int64(res.Bits))
}
