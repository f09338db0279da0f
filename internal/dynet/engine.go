package dynet

import (
	"runtime"
	"sync"

	"dyndiam/internal/faults"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// Engine executes a protocol over a dynamic network. Configure the fields,
// then call Run or RunUntil. An Engine is single-use per execution.
type Engine struct {
	Machines []Machine
	Adv      Adversary

	// Budget is the per-message bit budget; zero means Budget(len(Machines)).
	Budget int
	// CheckConnectivity makes the engine verify each round's topology is
	// connected, as the model requires of the adversary.
	CheckConnectivity bool
	// Workers > 1 selects the goroutine-parallel stepper with that many
	// workers; 1 forces sequential; 0 picks GOMAXPROCS. Parallel and
	// sequential execution are bit-identical because machines only share
	// the read-only topology.
	Workers int
	// Trace, when non-nil, records per-round topologies and statistics.
	Trace *Trace
	// Obs, when non-nil, receives typed events as the run progresses:
	// RoundStart/RoundEnd per round, Send per sending node, and Decide
	// the first round each node's output becomes available. Protocol
	// machines emit their own phase and lock events through their own
	// sinks; the engine only reports what it can see. A nil Obs keeps
	// the round loop exactly on the zero-allocation path pinned by the
	// alloc regression tests. Events are emitted from the round
	// driver's goroutine only, so a single-goroutine sink (obs.Ring) is
	// safe at any Workers setting.
	Obs obs.Sink
	// Metrics, when non-nil, accumulates run totals (engine_rounds_total,
	// engine_messages_total, engine_bits_total) and per-round histograms
	// (engine_round_senders, engine_round_bits). Nil means no metric work.
	Metrics *obs.Registry
	// ObsRoundStride subsamples the flood fast path's round-aggregated
	// event stream: with stride k only every k-th round emits its
	// round_end/frontier/diff_ops aggregate (the final round always
	// does), which bounds event volume at huge N. 0 or 1 means every
	// round. Metrics are never subsampled, and the message path ignores
	// the stride (it reports individual sends, not aggregates).
	ObsRoundStride int

	// Plan, when non-nil and enabled, injects deterministic seeded faults
	// between the adversary's topology and message delivery: crash/rejoin
	// outages freeze nodes, edge cuts remove topology edges (possibly
	// disconnecting the round — the adversary's own graph is still held
	// to the model's connectivity obligation), and per-delivery faults
	// drop, duplicate, or bit-corrupt message copies. Every injected
	// fault is counted in Metrics (faults_*_total) and emitted to Obs as
	// a KindFault event. A nil (or all-zero) Plan keeps the round loop
	// exactly on the zero-allocation clean path pinned by the alloc
	// regression tests.
	Plan *faults.Plan

	// Terminated, when non-nil, overrides the default all-nodes-decided
	// termination predicate (e.g. CFLOOD terminates when the source
	// outputs).
	Terminated func(ms []Machine) bool
}

// Result summarizes an execution.
type Result struct {
	// Rounds is the round number at whose end the termination predicate
	// first held, or MaxRounds if it never did.
	Rounds int
	// Done reports whether the termination predicate held by the end.
	Done bool
	// Messages is the number of messages sent (one per sending node per
	// round, whether or not anyone received it).
	Messages int
	// Bits is the total number of payload bits sent.
	Bits int
	// Outputs holds each node's output value; valid only for nodes whose
	// machine reported termination (Decided[v]).
	Outputs []int64
	Decided []bool
}

// Run executes up to maxRounds rounds, stopping early when the termination
// predicate holds. It returns an error on model violations (bit budget or
// connectivity). Run is Drive over the local executor: the engine's own
// machines, stepped and delivered in this process.
func (e *Engine) Run(maxRounds int) (*Result, error) {
	n := len(e.Machines)
	workers := e.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	terminated := e.Terminated
	if terminated == nil {
		terminated = AllDecided
	}
	return e.Drive(&local{e: e, workers: workers, terminated: terminated}, n, maxRounds) //lint:allow hotpathalloc one executor per run, before the round loop; Drive is its own root
}

// local is Run's executor: the engine's machines in this process.
type local struct {
	e          *Engine
	workers    int
	terminated func(ms []Machine) bool
}

func (x *local) Step(rd *Round) error {
	x.e.step(rd.R, rd.Actions, rd.Outgoing, x.workers, rd.Down)
	return nil
}

func (x *local) Deliver(rd *Round) error {
	x.e.deliver(rd.R, rd.Actions, rd.Inboxes, x.workers, rd.Down)
	return nil
}

func (x *local) Output(v int) (int64, bool) { return x.e.Machines[v].Output() }

func (x *local) Terminated() bool { return x.terminated(x.e.Machines) }

// AllDecided is the default termination predicate: every node has output.
func AllDecided(ms []Machine) bool {
	for _, m := range ms {
		if _, ok := m.Output(); !ok {
			return false
		}
	}
	return true
}

// NodeDecided returns a termination predicate that holds once node v has
// output — the CFLOOD termination condition for source v.
func NodeDecided(v int) func([]Machine) bool {
	return func(ms []Machine) bool {
		_, ok := ms[v].Output()
		return ok
	}
}

// step runs the commitment phase. down, when non-nil, marks crashed
// nodes: their machines are not stepped (a crash freezes state) and they
// commit to a silent Receive so the adversary and the accounting see no
// send from them.
//
//lint:hotpath
func (e *Engine) step(r int, actions []Action, outgoing []Message, workers int, down []bool) {
	if workers <= 1 {
		e.stepRange(r, 0, len(e.Machines), actions, outgoing, down)
		return
	}
	parallelFor(len(e.Machines), workers, func(lo, hi int) { e.stepRange(r, lo, hi, actions, outgoing, down) }) //lint:allow hotpathalloc parallel path trades goroutine allocations for wall clock; sequential path is the zero-alloc baseline
}

// stepRange is step's one per-node body, over nodes [lo, hi).
func (e *Engine) stepRange(r, lo, hi int, actions []Action, outgoing []Message, down []bool) {
	for v := lo; v < hi; v++ {
		if down != nil && down[v] {
			actions[v], outgoing[v] = Receive, Message{}
			continue
		}
		actions[v], outgoing[v] = e.Machines[v].Step(r) //lint:allow hotpathalloc machines own their per-step allocation budget (pinned by AllocsPerRun tests)
		outgoing[v].From = v
	}
}

// collect builds each receiving node's inbox: the messages of its sending
// neighbors, ordered by sender id. Adjacency lists are sorted ascending, so
// the inbox comes out ordered already; SortByFrom is a pure-safety pass
// that costs one comparison per message on that sorted input.
func collect(g *graph.Graph, actions []Action, outgoing []Message, inboxes [][]Message) {
	for v := range inboxes {
		inbox := inboxes[v][:0]
		if actions[v] == Receive {
			for _, u := range g.Adj(v) {
				if actions[u] == Send {
					inbox = append(inbox, outgoing[u])
				}
			}
			SortByFrom(inbox)
		}
		inboxes[v] = inbox
	}
}

// SortByFrom sorts messages by sender id with an in-place insertion sort:
// O(k) on the already-ascending inboxes the engine assembles, and free of
// the closure allocation sort.Slice would pay per node per round. Node
// processes of a distributed run sort the inboxes they assemble from
// relay frames with it too, so delivery order is one shared invariant.
func SortByFrom(msgs []Message) {
	for i := 1; i < len(msgs); i++ {
		if msgs[i-1].From <= msgs[i].From {
			continue
		}
		m := msgs[i]
		j := i
		for j > 0 && msgs[j-1].From > m.From {
			msgs[j] = msgs[j-1]
			j--
		}
		msgs[j] = m
	}
}

// deliver hands each receiving node its inbox. down, when non-nil, marks
// crashed nodes, which are skipped: a crashed node hears nothing.
//
//lint:hotpath
func (e *Engine) deliver(r int, actions []Action, inboxes [][]Message, workers int, down []bool) {
	if workers <= 1 {
		e.deliverRange(r, 0, len(e.Machines), actions, inboxes, down)
		return
	}
	parallelFor(len(e.Machines), workers, func(lo, hi int) { e.deliverRange(r, lo, hi, actions, inboxes, down) }) //lint:allow hotpathalloc parallel path trades goroutine allocations for wall clock; sequential path is the zero-alloc baseline
}

// deliverRange is deliver's one per-node body, over nodes [lo, hi).
func (e *Engine) deliverRange(r, lo, hi int, actions []Action, inboxes [][]Message, down []bool) {
	for v := lo; v < hi; v++ {
		if actions[v] == Receive && !(down != nil && down[v]) {
			e.Machines[v].Deliver(r, inboxes[v]) //lint:allow hotpathalloc machines own their per-step allocation budget (pinned by AllocsPerRun tests)
		}
	}
}

// parallelFor splits [0, n) into contiguous chunks, one per worker
// goroutine, and runs fn(lo, hi) on each.
func parallelFor(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
