// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks that every output it produced is correct, and
// prints each metric by name with its unit. The last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics; the exit code is non-zero when any correctness check failed.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25
//	bash perfbench/run.sh compare old.json new.json
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs once untraced and once with spans and a CPU profile on,
// and the metrics are the per-layer ones plus the traced-vs-untraced
// difference. Every run also writes a result file with the host
// fingerprint under --out; a traced run adds its spans (Chrome
// trace-event JSON) and CPU profile there.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one entry of the metric catalog BENCHMARK.json declares.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, each from its own primary operation (see op in
// workloadDef).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// spanMetrics are the per-layer spans the benchmark records around public
// calls, with the unit each is reported in.
var spanMetrics = []metricDef{
	{"harness.e1_thm6_reduction_s", "s", "lower"},
	{"harness.e1_diameters_s", "s", "lower"},
	{"harness.e2_thm7_reduction_s", "s", "lower"},
	{"harness.e3_thm8_leader_s", "s", "lower"},
	{"harness.e4_gap_s", "s", "lower"},
	{"harness.e5_estimate_s", "s", "lower"},
	{"harness.e6_majority_s", "s", "lower"},
	{"harness.e9_comm_s", "s", "lower"},
	{"harness.e10_phases_s", "s", "lower"},
	{"harness.figures_s", "s", "lower"},
	{"dynet.new_machines_s", "s", "lower"},
	{"adversaries.delta_churn_new_s", "s", "lower"},
	{"dynet.run_flood_s", "s", "lower"},
	{"serve.submit_us", "us", "lower"},
	{"serve.result_us", "us", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
}

// selfLayers are the layers CPU-profile self time is charged to (see
// chargeStack); bench is the benchmark's own code and other is what no
// layer claims.
var selfLayers = []string{
	"bitio", "graph", "bitkernel", "dynet", "protocols", "adversaries",
	"twoparty", "subnet", "faults", "harness", "serve", "rng", "obs",
	"net_http", "json", "runtime_gc", "bench", "other",
}

// countMetrics are per-operation counts. The dynet and serve counts
// repeat exactly for a given seed; the go.* counts are averages.
var countMetrics = []metricDef{
	{"dynet.rounds", "count", "lower"},
	{"dynet.messages", "count", "lower"},
	{"dynet.bits", "count", "lower"},
	{"dynet.floodfast_runs", "count", "higher"},
	{"serve.executions", "count", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"go.allocs", "count", "lower"},
	{"go.alloc_bytes", "bytes", "lower"},
	{"go.gc_cycles", "count", "lower"},
}

// overheadMetrics put the traced run's primary-operation median next to
// the untraced one measured in the same process.
var overheadMetrics = []metricDef{
	{"untraced.op_p50_ms", "ms", "lower"},
	{"traced.op_p50_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"cpu.total_s", "s", "lower"},
}

// perLayer is the full per-layer catalog, in BENCHMARK.json order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), spanMetrics...)
	for _, l := range selfLayers {
		out = append(out, metricDef{l + ".self_s", "s", "lower"})
	}
	out = append(out, countMetrics...)
	return append(out, overheadMetrics...)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run writes under --out.
type resultFile struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Problems    []string    `json:"problems,omitempty"`
	Notes       []string    `json:"notes,omitempty"`
	Result      result      `json:"result"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = per-layer run with spans and a CPU profile")
		out     = flag.String("out", ".bench_build/results", "directory for result, span and profile files")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q (want one of %s, or all)", *name, strings.Join(workloadNames(), ", "))
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatalf("run from the repository root: %v", err)
	}
	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, root: ".", out: *out,
	}
	res, err := execute(w, cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runConfig is one invocation's settings. root and tiny differ from "."
// and false only in the benchmark's own tests.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	root    string // repository root
	out     string
	tiny    bool // shrink the workload to smoke size
}

// execute runs one workload, prints its human-readable report, writes
// the result file and returns the result.
func execute(w workloadDef, cfg runConfig) (result, error) {
	fp := hostFingerprint(cfg.root)
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d %s commit=%s dirty=%s source=%s\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, fp.Dirty, fp.Source)
	o, err := measure(w, cfg)
	if err != nil {
		return result{}, err
	}
	res := result{
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		v := o.metrics[d.name] // a layer the workload does not reach reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problem("metric %s is not a number", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	res.Correct = len(o.problems) == 0 && o.failed == 0
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	for _, p := range o.problems {
		fmt.Println("CHECK FAILED: " + p)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	if err := writeResult(cfg, w.name, fp, o, res); err != nil {
		return result{}, err
	}
	return res, nil
}

func writeResult(cfg runConfig, name string, fp fingerprint, o *outcome, res result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", name, cfg.seed, b2i(cfg.trace)))
	data, err := json.MarshalIndent(resultFile{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Fingerprint: fp, Problems: o.problems, Notes: o.notes, Result: res,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if o.spans != nil {
		if err := o.spans.writeChrome(base + ".spans.json"); err != nil {
			return err
		}
	}
	if o.profile != nil {
		return os.WriteFile(base+".cpu.pprof", o.profile, 0o644)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so each one's peak RSS
// is its own, and prints one combined result whose metric names carry the
// workload as a prefix.
func runAll(seed uint64, seconds float64, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("locating own binary: %v", err)
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", out)
		cmd.Stderr = os.Stderr
		var buf bytes.Buffer
		cmd.Stdout = &buf
		runErr := cmd.Run()
		os.Stdout.Write(buf.Bytes())
		var r result
		if err := json.Unmarshal(lastLine(buf.Bytes()), &r); err != nil {
			fmt.Printf("%s: no result (%v, %v)\n", w.name, runErr, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// compareMain prints the metric-by-metric change between two result
// files and refuses to call results from differing hosts comparable.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var rf [2]resultFile
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if err := json.Unmarshal(data, &rf[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	status := "comparable"
	if d := hostDiffs(rf[0].Fingerprint, rf[1].Fingerprint); len(d) > 0 {
		status = "NOT COMPARABLE (host differs in " + strings.Join(d, ", ") + ")"
	}
	fmt.Printf("%s seed %d vs %s seed %d: %s\n", rf[0].Workload, rf[0].Seed, rf[1].Workload, rf[1].Seed, status)
	fmt.Printf("old commit %s (dirty %s), new commit %s (dirty %s)\n",
		rf[0].Fingerprint.Commit, rf[0].Fingerprint.Dirty, rf[1].Fingerprint.Commit, rf[1].Fingerprint.Dirty)
	names := make([]string, 0, len(rf[0].Result.Metrics))
	for k := range rf[0].Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	w := bufio.NewWriter(os.Stdout)
	for _, k := range names {
		a := rf[0].Result.Metrics[k]
		b, ok := rf[1].Result.Metrics[k]
		if !ok {
			continue
		}
		change := "n/a"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Fprintf(w, "  %-32s %14.6g -> %-14.6g %s %s\n", k, a.Value, b.Value, a.Unit, change)
	}
	w.Flush()
	if status != "comparable" {
		return 3
	}
	return 0
}

// outcome collects what a run measured and found.
type outcome struct {
	attempted, failed int
	problems          []string
	notes             []string
	metrics           map[string]float64
	spans             *spanLog
	profile           []byte
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// phase is what one measurement window of a workload produced.
type phase struct {
	op timing // primary operation latencies
	// rates are each operation's work units (see workloadDef.work) per
	// second of its own latency; work_per_s is their median, so pacing
	// between operations does not count and one stall does not swing it.
	rates []float64
}

// instance is a set-up workload ready to measure.
type instance interface {
	// setupTimes are the seconds of each set-up repetition so far;
	// setup_s is their median.
	setupTimes() []float64
	// run measures for d; spans is nil in untraced windows.
	run(d time.Duration, spans *spanLog, o *outcome) *phase
	// finish runs the checks that need the whole run and releases
	// everything the instance started. counts is nil when untraced;
	// traced, finish adds the per-operation counts it can take.
	finish(o *outcome, counts map[string]float64)
}

// workloadDef describes one workload.
type workloadDef struct {
	name string
	// op and work say what op_p50_ms times and what work_per_s counts.
	op, work string
	// setup prepares an instance.
	setup func(cfg runConfig, o *outcome) (instance, error)
}

var workloads = []workloadDef{reportWorkload, floodWorkload, serveMixWorkload, serveCachedWorkload}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measure runs set-up and the measurement windows. Untraced, the whole
// time is one window. Traced, the first half runs untraced and the second
// half with spans and the CPU profile on, so the overhead shows.
func measure(w workloadDef, cfg runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
		o.spans = spans
	}
	inst, err := w.setup(cfg, o)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		p := inst.run(cfg.seconds, nil, o)
		inst.finish(o, nil)
		setupMetric(inst, o)
		o.metrics["op_p50_ms"] = p.op.median() * 1e3
		o.metrics["work_per_s"] = medianOf(p.rates)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		o.note("op (%s): %s", w.op, p.op.describe(1e3, "ms"))
		o.note("work: median %.6g %s per second over %d operations", o.metrics["work_per_s"], w.work, len(p.rates))
		return o, nil
	}

	half := cfg.seconds / 2
	plain := inst.run(half, nil, o)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced := inst.run(half, spans, o)
	o.profile = prof.stop()
	runtime.ReadMemStats(&after)
	counts := map[string]float64{}
	inst.finish(o, counts)
	setupMetric(inst, o)

	ops := float64(len(traced.op.samples))
	if ops == 0 {
		o.problem("traced window completed no operation")
		ops = 1
	}
	self, err := selfSeconds(o.profile)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, l := range selfLayers {
		total += self[l]
		o.metrics[l+".self_s"] = self[l] / ops
	}
	o.metrics["cpu.total_s"] = total / ops
	for _, d := range spanMetrics {
		o.metrics[d.name] = medianOf(spans.durations(d.name)) * unitScale(d.unit)
		if math.IsNaN(o.metrics[d.name]) {
			o.metrics[d.name] = 0
		}
	}
	for k, v := range counts {
		o.metrics[k] = v
	}
	o.metrics["go.allocs"] = float64(after.Mallocs-before.Mallocs) / ops
	o.metrics["go.alloc_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
	o.metrics["go.gc_cycles"] = float64(after.NumGC-before.NumGC) / ops
	u, t := plain.op.median()*1e3, traced.op.median()*1e3
	o.metrics["untraced.op_p50_ms"] = u
	o.metrics["traced.op_p50_ms"] = t
	o.metrics["trace.overhead_frac"] = t/u - 1
	o.note("op (%s) untraced: %s", w.op, plain.op.describe(1e3, "ms"))
	o.note("op (%s) traced:   %s", w.op, traced.op.describe(1e3, "ms"))
	o.note("self time per op: %s", selfShares(self, total))
	return o, nil
}

// setupMetric reports setup_s as the median set-up repetition.
func setupMetric(inst instance, o *outcome) {
	setups := inst.setupTimes()
	o.metrics["setup_s"] = medianOf(setups)
	o.note("setup: median %.4g s over %d repetitions", o.metrics["setup_s"], len(setups))
}

func unitScale(unit string) float64 {
	switch unit {
	case "ms":
		return 1e3
	case "us":
		return 1e6
	}
	return 1
}

// selfShares renders each layer's share of profiled CPU, largest first.
func selfShares(self map[string]float64, total float64) string {
	type share struct {
		layer string
		frac  float64
	}
	var s []share
	for _, l := range selfLayers {
		if self[l] > 0 {
			s = append(s, share{l, self[l] / total})
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].frac > s[j].frac })
	var parts []string
	for _, x := range s {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", x.layer, 100*x.frac))
	}
	return strings.Join(parts, ", ")
}
