package main

import (
	"fmt"
	"runtime"
	"time"

	"dyndiam"
)

// floodWorkload runs CFLOOD with a known diameter bound over a
// delta-encoded churn network through Engine.RunFlood, which takes the
// word-packed fast path: bitkernel, delta-CSR graph mutation and the
// adversary, with almost no bitio or message-path work. Every flood must
// confirm with every node informed, and every run must take the fast
// path.
var floodWorkload = workloadDef{
	name:  "flood_1e5",
	op:    "one RunFlood at N=100000",
	work:  "node-rounds",
	setup: setupFlood,
}

const (
	floodN    = 100_000
	floodTiny = 2_000
	floodD    = 256 // the churn network's spanning tree keeps D well below this
)

type floodInstance struct {
	n    int
	seed uint64
	reps int
	reg  *dyndiam.MetricsRegistry // engine counters across every rep
	// setups are the per-rep set-up times: NewMachines plus building the
	// adversary.
	setups []float64
	first  *dyndiam.Result // rep 0, whose counts repeat exactly for a seed
}

// setupFlood only fixes the size: each rep builds its own machines and
// adversary, and setup_s is the median of those per-rep set-ups.
func setupFlood(cfg runConfig, _ *outcome) (instance, error) {
	f := &floodInstance{n: floodN, seed: cfg.seed, reg: dyndiam.NewMetricsRegistry()}
	if cfg.tiny {
		f.n = floodTiny
	}
	return f, nil
}

func (f *floodInstance) setupTimes() []float64 { return f.setups }

func (f *floodInstance) run(d time.Duration, spans *spanLog, o *outcome) *phase {
	const parent = "flood.rep"
	p := &phase{}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || len(p.op.samples) == 0 {
		rep, seed := f.reps, deriveSeed(f.seed, 'f', f.reps)
		f.reps++
		o.attempted++
		start := time.Now()
		inputs := make([]int64, f.n)
		inputs[0] = 1
		ms := dyndiam.NewMachines(dyndiam.CFlood{}, f.n, inputs, seed,
			map[string]int64{dyndiam.ExtraDiameter: floodD})
		spans.end("dynet.new_machines_s", parent, rep, 0, start)
		advStart := time.Now()
		adv := dyndiam.DeltaChurnAdversary(f.n, f.n/8, f.n/64, seed)
		spans.end("adversaries.delta_churn_new_s", parent, rep, 0, advStart)
		f.setups = append(f.setups, time.Since(start).Seconds())

		eng := &dyndiam.Engine{Machines: ms, Adv: adv, Workers: 1, Metrics: f.reg}
		runtime.GC()
		runStart := time.Now()
		res, err := eng.RunFlood(2*floodD, dyndiam.FloodStopNode(0))
		el := spans.end("dynet.run_flood_s", parent, rep, 0, runStart)
		if err := checkFlood(res, err, ms); err != nil {
			o.failed++
			o.problem("rep %d (seed %d): %v", rep, seed, err)
			break
		}
		p.op.add(el)
		p.rates = append(p.rates, float64(f.n)*float64(res.Rounds)/el.Seconds())
		if rep == 0 {
			f.first = res
		}
	}
	return p
}

// checkFlood verifies one flood: it ran, its source confirmed, and it
// informed every node.
func checkFlood(res *dyndiam.Result, err error, ms []dyndiam.Machine) error {
	if err != nil {
		return err
	}
	if !res.Done {
		return fmt.Errorf("source did not confirm within %d rounds", 2*floodD)
	}
	for v, m := range ms {
		if !dyndiam.Informed(m) {
			return fmt.Errorf("node %d not informed at confirmation", v)
		}
	}
	return nil
}

func (f *floodInstance) finish(o *outcome, counts map[string]float64) {
	runs := int64(0)
	for _, m := range f.reg.Snapshot() {
		if m.Name == "engine_floodfast_runs_total" {
			runs = m.Value
		}
	}
	if runs != int64(f.reps) {
		o.problem("fast path ran %d of %d floods; the rest fell back to the message path", runs, f.reps)
	}
	if counts != nil && f.first != nil {
		counts["dynet.rounds"] = float64(f.first.Rounds)
		counts["dynet.messages"] = float64(f.first.Messages)
		counts["dynet.bits"] = float64(f.first.Bits)
		counts["dynet.floodfast_runs"] = 1 // per flood, checked above
	}
}
