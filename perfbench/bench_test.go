package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if got := medianOf([]float64{5, 1, 3}); got != 3 {
		t.Errorf("medianOf = %v, want 3", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {19, 0}, {99, 0}, {100, 900}, {999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	}
	for _, c := range cases {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	var tm timing
	for i := 1; i <= 100; i++ {
		tm.add(time.Duration(i) * time.Millisecond)
	}
	if _, ok := tm.at(990); ok {
		t.Error("p99 of 100 samples reported as qualifying")
	}
	if v, ok := tm.at(900); !ok || math.Abs(v-0.0901) > 1e-9 {
		t.Errorf("p90 of 1..100 ms = %v (ok %v), want 0.0901 s", v, ok)
	}
	if got, want := tm.describe(1e3, "ms"), "p50 50.5 ms, p90 90.1 ms, n=100"; got != want {
		t.Errorf("describe = %q, want %q", got, want)
	}
	var few timing
	few.add(time.Second)
	if got, want := few.describe(1, "s"), "p50 1 s, n=1"; got != want {
		t.Errorf("describe = %q, want %q", got, want)
	}
}

func TestChargeStack(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"dyndiam/internal/bitio.(*Writer).WriteBit", "dyndiam/internal/dynet.(*Engine).Run"}, "bitio"},
		{[]string{"runtime.memmove", "runtime.growslice", "dyndiam/internal/graph.(*Graph).AddEdge"}, "graph"},
		{[]string{"dyndiam/internal/protocols/leader.(*machine).Step", "dyndiam/internal/dynet.step"}, "protocols"},
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", "dyndiam/internal/serve.writeJSON"}, "json"},
		{[]string{"syscall.read", "net.(*conn).Read", "net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "net_http"},
		{[]string{"dyndiam/internal/serve.(*Server).Submit", "net/http.HandlerFunc.ServeHTTP"}, "serve"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"net/http.(*Client).Do", "main.(*client).do"}, "bench"},
		{[]string{"dyndiam.NewMachines", "main.(*floodInstance).run"}, "bench"},
		{[]string{"dyndiam/internal/chains.Label", "dyndiam/internal/twoparty.Run"}, "subnet"},
		{[]string{"dyndiam/internal/stats.Mean", "dyndiam/internal/harness.LeaderReliability"}, "harness"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := chargeStack(c.stack); got != c.want {
			t.Errorf("chargeStack(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
	for _, l := range []string{"bitio", "graph", "bitkernel", "dynet", "adversaries", "twoparty", "subnet", "faults", "harness", "serve", "rng", "obs"} {
		if got := layerOf("dyndiam/internal/" + l); got != l {
			t.Errorf("layerOf(%s) = %q", l, got)
		}
	}
}

// spin burns CPU so the profiler has samples to record.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeCPUProfile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip(err)
	}
	spin(300 * time.Millisecond)
	samples, err := decodeProfile(p.stop())
	if err != nil {
		t.Fatal(err)
	}
	total, found := int64(0), false
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if total < int64(100*time.Millisecond) || !found {
		t.Fatalf("profile holds %v of CPU, spin seen %v; want >= 100ms with spin on a stack", time.Duration(total), found)
	}
}

func TestHostDiffs(t *testing.T) {
	a := hostFingerprint("..")
	b := a
	b.Commit, b.Dirty, b.Source = "other", "true", "other"
	if d := hostDiffs(a, b); len(d) != 0 {
		t.Errorf("code-only change reported as host difference: %v", d)
	}
	b.NProc++
	b.GoVersion = "go0"
	if d := hostDiffs(a, b); strings.Join(d, ",") != "nproc,go_version" {
		t.Errorf("hostDiffs = %v, want [nproc go_version]", d)
	}
	if a.NProc != runtime.NumCPU() || a.Source == "unknown" {
		t.Errorf("fingerprint incomplete: %+v", a)
	}
}

// benchmarkJSON is the catalog the repository root declares.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, want)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit, Better string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(declared))
			return
		}
		for i, d := range defs {
			m := declared[i]
			if d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", kind, i, d, m)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer(), b.PerLayer)
}

// TestTinyWorkloads runs every workload at smoke size, untraced and
// traced: each must pass its correctness checks and emit exactly the
// metrics BENCHMARK.json declares.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 600 * time.Millisecond, trace: trace, root: "..", out: t.TempDir(), tiny: true}
			res, err := execute(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			declared := b.EndToEnd
			if trace {
				declared = b.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.name, trace, m.Name, v.Unit, m.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestPerturbedReferenceFailsReportCheck plants a one-byte change in one
// reference table and expects the report check to name that table.
func TestPerturbedReferenceFailsReportCheck(t *testing.T) {
	art, bad, err := regenerate(tinyReport, referenceSeed, nil, 0)
	if err != nil || len(bad) > 0 {
		t.Fatalf("regenerate: %v %v", err, bad)
	}
	ref := map[string][]byte{}
	for k, v := range art {
		ref[k] = append([]byte(nil), v...)
	}
	if d := diffArtifacts(art, ref); len(d) != 0 {
		t.Fatalf("identical artifacts differ: %v", d)
	}
	ref["e4_gap.txt"][len(ref["e4_gap.txt"])-2] ^= 1
	r := &reportInstance{sz: tinyReport, seed: referenceSeed, ref: ref}
	o := &outcome{metrics: map[string]float64{}}
	r.run(time.Millisecond, nil, o)
	if len(o.problems) != 1 || !strings.Contains(o.problems[0], "e4_gap.txt: differs from the reference") {
		t.Fatalf("problems = %q, want one naming e4_gap.txt", o.problems)
	}
}
