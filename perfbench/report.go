package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dyndiam"
)

// reportWorkload regenerates every E1-E10 table and the construction
// figures in-process through the same dyndiam calls cmd/report makes,
// with sweep workers at the default (GOMAXPROCS). At seed 1 every
// artifact must be byte-identical to the committed reports/ directory; at
// any seed every row invariant must hold, and every regeneration in a
// run must produce the same bytes.
var reportWorkload = workloadDef{
	name:  "report",
	op:    "one full regeneration",
	work:  "regenerations",
	setup: setupReport,
}

// referenceSeed is the seed the committed reports/ were generated with.
const referenceSeed = 1

// reportSizes are the sweep sizes of one regeneration.
type reportSizes struct {
	sizes, qs, leaderSizes []int
}

// fullReport is cmd/report's default scale; tinyReport is its -quick
// scale, used for smoke runs.
var (
	fullReport = reportSizes{[]int{32, 64, 128, 256}, []int{17, 33, 65}, []int{16, 32, 64}}
	tinyReport = reportSizes{[]int{32, 64}, []int{17, 33}, []int{16, 32}}
)

// reportStep regenerates one table and returns its row-invariant
// violations.
type reportStep struct {
	name string // artifact base name under reports/
	span string // per-layer metric timing the call
	run  func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error)
}

var reportSteps = []reportStep{
	{"e4_gap", "harness.e4_gap_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		rows, err := dyndiam.GapTable(sz.sizes, 4, seed)
		var bad []string
		for _, r := range rows {
			if !r.OutputsCorrect {
				bad = append(bad, fmt.Sprintf("e4_gap N=%d: outputs not correct", r.N))
			}
		}
		return dyndiam.FormatGapTable(rows), bad, err
	}},
	{"e1_thm6_reduction", "harness.e1_thm6_reduction_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		rows, err := dyndiam.CFloodReductionTable(sz.qs, 2, seed)
		var bad []string
		for _, r := range rows {
			if r.LemmaViolations != 0 {
				bad = append(bad, fmt.Sprintf("e1_thm6_reduction q=%d: %d Lemma 5 violations", r.Q, r.LemmaViolations))
			}
		}
		return dyndiam.FormatReductionTable("E1: Theorem 6 reduction", rows), bad, err
	}},
	{"e1_diameters", "harness.e1_diameters_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		rows, err := dyndiam.ConstructionDiameters(sz.qs, 2, seed)
		return dyndiam.FormatDiameterTable(rows), nil, err
	}},
	{"e2_thm7_reduction", "harness.e2_thm7_reduction_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		rows, err := dyndiam.ConsensusReduction([]int{201, 401}, seed)
		var bad []string
		for _, r := range rows {
			if r.LemmaViolations != 0 {
				bad = append(bad, fmt.Sprintf("e2_thm7_reduction q=%d: %d Lemma 5 violations", r.Q, r.LemmaViolations))
			}
		}
		return dyndiam.FormatConsensusRedTbl(rows), bad, err
	}},
	{"e3_thm8_leader", "harness.e3_thm8_leader_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		rows, err := dyndiam.LeaderSweep(sz.leaderSizes, 4, 0.9, 150, seed)
		var bad []string
		for _, r := range rows {
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("e3_thm8_leader N=%d: election not correct", r.N))
			}
		}
		return dyndiam.FormatLeaderTable(rows), bad, err
	}},
	{"e5_estimate", "harness.e5_estimate_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		rows, err := dyndiam.EstimateSweep(sz.leaderSizes, []int{24, 64, 128}, 4, seed)
		return dyndiam.FormatEstimateTable(rows), nil, err
	}},
	{"e6_majority", "harness.e6_majority_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		rows, err := dyndiam.MajoritySweep(48, []float64{0.25, 0.5, 0.75, 1.0}, 4, seed)
		return dyndiam.FormatMajorityTable(rows), nil, err
	}},
	{"e9_comm", "harness.e9_comm_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		rows, err := dyndiam.CommTable([]int{2, 4}, sz.qs, seed)
		return dyndiam.FormatCommTable(rows), nil, err
	}},
	{"e10_phases", "harness.e10_phases_s", func(sz reportSizes, seed uint64) (*dyndiam.ResultTable, []string, error) {
		var rows []dyndiam.PhaseBreakdown
		for _, n := range sz.leaderSizes {
			pb, err := dyndiam.LeaderPhases(n, 4, seed, nil)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, pb)
		}
		return dyndiam.FormatPhaseBreakdown(rows), nil, nil
	}},
}

// regenerate produces every report artifact, keyed by file name as
// cmd/report writes them, plus the row-invariant violations.
func regenerate(sz reportSizes, seed uint64, spans *spanLog, op int) (map[string][]byte, []string, error) {
	const parent = "report.regenerate"
	art := map[string][]byte{}
	var bad []string
	for _, s := range reportSteps {
		start := time.Now()
		t, b, err := s.run(sz, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		bad = append(bad, b...)
		var txt, csv bytes.Buffer
		t.Fprint(&txt)
		if err := dyndiam.WriteTableCSV(&csv, t); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		art[s.name+".txt"], art[s.name+".csv"] = txt.Bytes(), csv.Bytes()
		spans.end(s.span, parent, op, 0, start)
	}
	start := time.Now()
	figures := []struct {
		name string
		gen  func() (string, error)
	}{
		{"figure1_gamma", dyndiam.Figure1},
		{"figure2_centipede", dyndiam.Figure2},
		{"figure3_centipede", dyndiam.Figure3},
	}
	for _, f := range figures {
		txt, err := f.gen()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f.name, err)
		}
		art[f.name+".txt"] = []byte(txt)
	}
	in := dyndiam.RandomDisjZero(2, sz.qs[0], 1, seed)
	net, err := dyndiam.NewCFloodNetwork(in)
	if err != nil {
		return nil, nil, fmt.Errorf("composition: %w", err)
	}
	art["composition.dot"] = []byte(dyndiam.CFloodDOT(net, dyndiam.Reference, 2))
	spans.end("harness.figures_s", parent, op, 0, start)
	return art, bad, nil
}

// loadReference reads every committed report artifact.
func loadReference(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ref := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		ref[e.Name()] = b
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("no reference artifacts in %s", dir)
	}
	return ref, nil
}

// diffArtifacts lists every artifact that is missing from got, differs
// from want, or is not in want.
func diffArtifacts(got, want map[string][]byte) []string {
	var d []string
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			d = append(d, name+": not regenerated")
		case !bytes.Equal(g, w):
			d = append(d, name+": differs from the reference")
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			d = append(d, name+": has no reference")
		}
	}
	sort.Strings(d)
	return d
}

type reportInstance struct {
	sz    reportSizes
	seed  uint64
	ref   map[string][]byte // nil when the run cannot be checked byte for byte
	first map[string][]byte // the run's first regeneration
	ops   int
	// setups are the reference loads' seconds.
	setups []float64
	// sweepCounts are the engine counters of one regeneration, taken on
	// the first traced regeneration.
	sweepCounts map[string]float64
}

// referenceLoads is how many times set-up reads the reference tables.
const referenceLoads = 15

func setupReport(cfg runConfig, o *outcome) (instance, error) {
	r := &reportInstance{sz: fullReport, seed: cfg.seed}
	if cfg.tiny {
		r.sz = tinyReport
	}
	for i := 0; i < referenceLoads; i++ {
		start := time.Now()
		ref, err := loadReference(filepath.Join(cfg.root, "reports"))
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.ref = ref
	}
	if cfg.tiny || cfg.seed != referenceSeed {
		r.ref = nil
		o.note("byte-identity check off (reports/ is seed %d at full scale); row invariants and run-to-run identity checked", referenceSeed)
	}
	dyndiam.SetSweepWorkers(0)
	return r, nil
}

func (r *reportInstance) setupTimes() []float64 { return r.setups }

func (r *reportInstance) run(d time.Duration, spans *spanLog, o *outcome) *phase {
	p := &phase{}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || len(p.op.samples) == 0 {
		countThis := spans != nil && r.sweepCounts == nil
		if countThis {
			dyndiam.EnableSweepMetrics()
		}
		runtime.GC()
		o.attempted++
		start := time.Now()
		art, bad, err := regenerate(r.sz, r.seed, spans, r.ops)
		el := spans.end("report.regenerate", "", r.ops, 0, start)
		r.ops++
		if countThis {
			r.sweepCounts = sweepCounts(dyndiam.TakeSweepMetrics())
		}
		if err != nil {
			o.failed++
			o.problem("regeneration %d: %v", r.ops, err)
			break
		}
		p.op.add(el)
		p.rates = append(p.rates, 1/el.Seconds())
		for _, b := range bad {
			o.problem("regeneration %d: %s", r.ops, b)
		}
		if r.first == nil {
			r.first = art
			if r.ref != nil {
				for _, diff := range diffArtifacts(art, r.ref) {
					o.problem("seed %d: %s", referenceSeed, diff)
				}
			}
		} else if diff := diffArtifacts(art, r.first); len(diff) > 0 {
			o.problem("regeneration %d differs from the first: %v", r.ops, diff)
		}
	}
	return p
}

func (r *reportInstance) finish(o *outcome, counts map[string]float64) {
	if counts != nil {
		for k, v := range r.sweepCounts {
			counts[k] = v
		}
	}
}

// sweepCounts maps the sweep-metric registry's engine counters onto the
// count catalog.
func sweepCounts(reg *dyndiam.MetricsRegistry) map[string]float64 {
	names := map[string]string{
		"engine_rounds_total":         "dynet.rounds",
		"engine_messages_total":       "dynet.messages",
		"engine_bits_total":           "dynet.bits",
		"engine_floodfast_runs_total": "dynet.floodfast_runs",
	}
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	for _, m := range reg.Snapshot() {
		if k, ok := names[m.Name]; ok {
			out[k] = float64(m.Value)
		}
	}
	return out
}
