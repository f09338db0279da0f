package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyndiam"
	"dyndiam/internal/serve"
)

// The serve workloads run an in-process experiment server behind a real
// loopback HTTP listener and drive it from this process, with at most two
// client connections (the host's core count).
//
// serve_mix is the server used two ways at once. An uncached client
// (closed loop, one connection) submits fresh-seed leader_degradation
// jobs and waits for each result before sending the next: every job is a
// cache miss that runs the message path plus fault injection. It starts
// a job at most every freshCycle, so a run leaves the same number of
// results in the server's cache however fast jobs run, and peak memory
// does not grow with speed. Beside it a cached client (open loop, one
// connection, a fixed rate well below saturation) re-submits and
// re-fetches keys primed during set-up. The primary operation is the
// uncached job.
//
// serve_cached is the read path alone: the cached client with nothing
// computing beside it, sending bursts of back-to-back requests at a fixed
// average rate. The primary operation is one cached POST+GET. Within a
// burst the loop is closed, so latency is the read path's own rather than
// the time to wake an idle vCPU between paced requests; the fixed average
// rate keeps the allocation rate, and with it the GC's heap overshoot and
// peak RSS, from growing with read speed, which would make a faster read
// path read as a memory regression.
var (
	serveMixWorkload = workloadDef{
		name:  "serve_mix",
		op:    "one fresh job, POST until its result answers 200",
		work:  "fresh jobs",
		setup: func(cfg runConfig, o *outcome) (instance, error) { return setupServe(cfg, o, true) },
	}
	serveCachedWorkload = workloadDef{
		name:  "serve_cached",
		op:    "one cached POST+GET",
		work:  "cached requests",
		setup: func(cfg runConfig, o *outcome) (instance, error) { return setupServe(cfg, o, false) },
	}
)

const (
	// primedKeys is how many results set-up computes for the cached
	// client to re-read.
	primedKeys = 8
	// serveSetups is how many times set-up starts a server and primes it;
	// the last one is measured.
	serveSetups = 3
	// mixCachedRate is the cached client's request rate beside the
	// uncached client; cachedRate is its average rate alone, in bursts of
	// cachedBurst. Both are far below what one connection sustains, so
	// they measure latency, not queueing.
	mixCachedRate = 500
	cachedRate    = 2000
	cachedBurst   = 50
	// freshCycle is the shortest time from one fresh job's start to the
	// next one's; jobs take well under it.
	freshCycle = 250 * time.Millisecond
	// pollInterval is how often a client polls a pending result.
	pollInterval = 2 * time.Millisecond
)

// leaderJob is the uncached and primed job shape: leader election at
// N=16, 4 trials, drop faults at rates {0, 0.05}.
func leaderJob(seed uint64) dyndiam.ServeParams {
	return dyndiam.ServeParams{N: 16, Trials: 4, Seed: seed, Dim: "drop", Rates: []float64{0, 0.05}}
}

// submitBody encodes one POST /jobs request.
func submitBody(p dyndiam.ServeParams) []byte {
	b, err := json.Marshal(struct {
		Kind   dyndiam.ServeKind   `json:"kind"`
		Params dyndiam.ServeParams `json:"params"`
	}{dyndiam.ServeLeaderDegradation, p})
	if err != nil {
		panic(err) // a fixed struct of numbers and strings always encodes
	}
	return b
}

// client is one HTTP connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// submit POSTs a job and returns the status code and the job view.
func (c *client) submit(body []byte) (int, dyndiam.ServeJobView, error) {
	code, b, err := c.do(http.MethodPost, "/jobs", body)
	var v dyndiam.ServeJobView
	if err == nil && (code == http.StatusOK || code == http.StatusAccepted) {
		err = json.Unmarshal(b, &v)
	}
	return code, v, err
}

// await polls a job's result until it leaves 202.
func (c *client) await(key string) (int, []byte, error) {
	for {
		code, b, err := c.do(http.MethodGet, "/jobs/"+key+"/result", nil)
		if err != nil || code != http.StatusAccepted {
			return code, b, err
		}
		time.Sleep(pollInterval)
	}
}

// primed is one key computed during set-up.
type primed struct {
	body   []byte // the POST /jobs request
	key    string
	params dyndiam.ServeParams // as normalized by the server
	result []byte              // the first fetch of its result
}

type serveInstance struct {
	seed   uint64
	mix    bool // serve_mix: uncached client beside an open-loop cached one
	srv    *dyndiam.ExperimentServer
	hs     *http.Server
	served chan error
	base   string
	keys   []primed
	// fresh counts uncached jobs across windows so every one gets a new
	// seed; sample is the first one, checked against a direct call.
	fresh  int
	sample *primed
	setups []float64
	counts map[string]float64 // the traced window's, see windowCounts
}

func setupServe(cfg runConfig, o *outcome, mix bool) (instance, error) {
	s := &serveInstance{seed: cfg.seed, mix: mix}
	for i := 0; i < serveSetups; i++ {
		if i > 0 {
			s.stop()
		}
		start := time.Now()
		if err := s.start(); err != nil {
			s.stop()
			return nil, err
		}
		s.setups = append(s.setups, time.Since(start).Seconds())
	}
	o.attempted += len(s.keys)
	return s, nil
}

// start boots a server on a loopback port and primes its cache: all keys
// are submitted first so the server's workers compute them in parallel.
func (s *serveInstance) start() error {
	s.srv = dyndiam.NewExperimentServer(dyndiam.ServeConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()

	c := newClient(s.base)
	defer c.hc.CloseIdleConnections()
	s.keys = s.keys[:0]
	for i := 0; i < primedKeys; i++ {
		p := primed{body: submitBody(leaderJob(deriveSeed(s.seed, 'c', i)))}
		code, v, err := c.submit(p.body)
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("priming key %d: status %d: %v", i, code, err)
		}
		p.key, p.params = v.Key, v.Params
		s.keys = append(s.keys, p)
	}
	for i := range s.keys {
		code, b, err := c.await(s.keys[i].key)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("priming key %d: result status %d: %v", i, code, err)
		}
		s.keys[i].result = b
	}
	return nil
}

// stop shuts the HTTP server and the experiment server down and waits
// for both.
func (s *serveInstance) stop() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.srv.Close()
	s.hs = nil
}

func (s *serveInstance) setupTimes() []float64 { return s.setups }

func (s *serveInstance) run(d time.Duration, spans *spanLog, o *outcome) *phase {
	p := &phase{}
	var before map[string]int64
	if spans != nil {
		before = s.scrape(o)
	}
	deadline := time.Now().Add(d)
	var cached cachedStats
	if s.mix {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cached = s.cachedLoop(deadline, mixCachedRate, 1, spans)
		}()
		s.uncachedLoop(deadline, spans, o, p)
		wg.Wait()
	} else {
		cached = s.cachedLoop(deadline, cachedRate, cachedBurst, spans)
		p.op = cached.lat
		for _, v := range cached.lat.samples {
			p.rates = append(p.rates, 1/v)
		}
	}
	o.attempted += cached.attempted
	o.failed += cached.failed
	for _, e := range cached.errs {
		o.problem("cached client: %s", e)
	}
	if s.mix {
		o.note("cached client beside it (open loop, %d/s): %s", mixCachedRate, cached.lat.describe(1e6, "us"))
	}
	o.note("cached client lateness: %s", cached.late.describe(1e3, "ms"))
	if spans != nil {
		s.counts = s.windowCounts(before, s.scrape(o), p, cached)
	}
	return p
}

// uncachedLoop is the paced closed-loop client of fresh jobs.
func (s *serveInstance) uncachedLoop(deadline time.Time, spans *spanLog, o *outcome, p *phase) {
	c := newClient(s.base)
	defer c.hc.CloseIdleConnections()
	next := time.Now()
	for len(p.op.samples) == 0 || (next.Before(deadline) && time.Now().Before(deadline)) {
		time.Sleep(time.Until(next))
		i := s.fresh
		s.fresh++
		body := submitBody(leaderJob(deriveSeed(s.seed, 'u', i)))
		o.attempted++
		start := time.Now()
		next = start.Add(freshCycle)
		code, v, err := c.submit(body)
		if err != nil || code != http.StatusAccepted {
			o.failed++
			o.problem("fresh job %d: submit status %d (want 202): %v", i, code, err)
			return
		}
		code, res, err := c.await(v.Key)
		el := spans.end("serve_mix.fresh_job", "", i, 1, start)
		if err != nil || code != http.StatusOK {
			o.failed++
			o.problem("fresh job %d: result status %d (want 200): %v", i, code, err)
			return
		}
		p.op.add(el)
		p.rates = append(p.rates, 1/el.Seconds())
		if s.sample == nil {
			s.sample = &primed{body: body, key: v.Key, params: v.Params, result: res}
		}
		if spans != nil {
			// The queue_wait span closes when execution starts, before the
			// result exists, so it is complete here; a missing one is
			// skipped, never counted as a failure.
			if ms, ok := c.queueWaitMs(v.Key); ok {
				spans.add("serve.queue_wait_ms", "serve_mix.fresh_job", i, 1, start, time.Duration(ms)*time.Millisecond)
			}
		}
	}
}

// cachedStats is what the cached client measured.
type cachedStats struct {
	lat, late         timing
	attempted, failed int
	errs              []string
}

// cachedLoop re-submits and re-fetches primed keys until deadline, in
// bursts of burst requests due every burst/rate seconds; the requests of
// a burst go back to back. With burst 1 this is an open loop, and a
// request's latency runs from when it was due if the previous request was
// still in flight then, else from when it was sent, so a stall is charged
// to every request it delays while the generator's own timer slack is
// reported separately as lateness. Within a longer burst the loop is
// closed and latency runs from when a request was sent.
func (s *serveInstance) cachedLoop(deadline time.Time, rate, burst int, spans *spanLog) cachedStats {
	var st cachedStats
	c := newClient(s.base)
	defer c.hc.CloseIdleConnections()
	start := time.Now()
	prevEnd := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i-i%burst) * time.Second / time.Duration(rate))
		if !due.Before(deadline) {
			return st
		}
		time.Sleep(time.Until(due))
		k := &s.keys[i%len(s.keys)]
		sent := time.Now()
		st.attempted++
		code, v, err := c.submit(k.body)
		spans.end("serve.submit_us", "serve.cached_read", i, 2, sent)
		if err != nil || code != http.StatusOK || v.Key != k.key {
			st.fail(fmt.Sprintf("request %d: submit status %d (want 200, key %s): %v", i, code, k.key, err))
			continue
		}
		get := time.Now()
		code, body, err := c.do(http.MethodGet, "/jobs/"+k.key+"/result", nil)
		spans.end("serve.result_us", "serve.cached_read", i, 2, get)
		end := time.Now()
		if err != nil || code != http.StatusOK || !bytes.Equal(body, k.result) {
			st.fail(fmt.Sprintf("request %d: result status %d (want 200, identical to the first fetch): %v", i, code, err))
			continue
		}
		from := sent
		if i%burst == 0 {
			st.late.add(sent.Sub(due))
		}
		if burst == 1 && prevEnd.After(due) {
			from = due
		}
		st.lat.add(end.Sub(from))
		prevEnd = end
	}
}

// fail records a failed cached request, keeping the first few messages.
func (st *cachedStats) fail(msg string) {
	st.failed++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, msg)
	}
}

// queueWaitMs reads a job's queue_wait span from the server's flight
// recorder.
func (c *client) queueWaitMs(key string) (int64, bool) {
	code, b, err := c.do(http.MethodGet, "/debug/jobs/"+key, nil)
	if err != nil || code != http.StatusOK {
		return 0, false
	}
	var rec struct {
		Events []struct {
			Kind string `json:"kind"`
			T    int64  `json:"t"`
			Name string `json:"name"`
		} `json:"events"`
	}
	if json.Unmarshal(b, &rec) != nil {
		return 0, false
	}
	begin, end := int64(-1), int64(-1)
	for _, e := range rec.Events {
		if e.Name != "queue_wait" {
			continue
		}
		switch e.Kind {
		case "span_begin":
			begin = e.T
		case "span_end":
			end = e.T
		}
	}
	if begin < 0 || end < begin {
		return 0, false
	}
	return end - begin, true
}

// scrape reads the server's counters from GET /metrics.
func (s *serveInstance) scrape(o *outcome) map[string]int64 {
	c := newClient(s.base)
	defer c.hc.CloseIdleConnections()
	code, b, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		o.problem("GET /metrics: status %d: %v", code, err)
		return nil
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

// windowCounts turns /metrics deltas over a traced window into
// per-operation counts: harness executions per fresh job and cache hits
// per cached request (each exactly 1 when singleflight and the cache
// work), and the window's hit ratio; plus the open-loop generator's p99
// lateness.
func (s *serveInstance) windowCounts(before, after map[string]int64, p *phase, cached cachedStats) map[string]float64 {
	out := map[string]float64{}
	v, _ := cached.late.at(990)
	out["loadgen.late_p99_ms"] = v * 1e3
	if before == nil || after == nil {
		return out
	}
	exec := float64(after["serve_harness_executions_total"] - before["serve_harness_executions_total"])
	hits := float64(after["serve_cache_hits_total"] - before["serve_cache_hits_total"])
	miss := float64(after["serve_cache_misses_total"] - before["serve_cache_misses_total"])
	if n := len(p.op.samples); s.mix && n > 0 {
		out["serve.executions"] = exec / float64(n)
	}
	if n := len(cached.lat.samples); n > 0 {
		out["serve.cache_hits"] = hits / float64(n)
	}
	if hits+miss > 0 {
		out["serve.cache_hit_ratio"] = hits / (hits + miss)
	}
	return out
}

func (s *serveInstance) finish(o *outcome, counts map[string]float64) {
	defer s.stop()
	for k, v := range s.counts {
		counts[k] = v
	}
	// Check one primed result, and serve_mix's first fresh result, against
	// a direct harness call.
	checks := []*primed{&s.keys[0]}
	if s.sample != nil {
		checks = append(checks, s.sample)
	}
	for _, p := range checks {
		want, err := directLeaderDegradation(p.params)
		if err != nil {
			o.problem("direct LeaderDegradation for key %s: %v", p.key, err)
			continue
		}
		if !bytes.Equal(want, p.result) {
			o.problem("served result for key %s differs from a direct LeaderDegradation call", p.key)
		}
	}
}

// directLeaderDegradation computes the result body the server should
// serve for a normalized leader_degradation job, by calling the harness
// directly and wrapping it in the server's result envelope.
func directLeaderDegradation(p dyndiam.ServeParams) ([]byte, error) {
	var specs []dyndiam.FaultSpec
	for _, r := range p.Rates {
		s, err := dyndiam.FaultSpecFor(p.Dim, r)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	rows, err := dyndiam.LeaderDegradation(dyndiam.DegradationConfig{
		N: p.N, TargetDiam: p.TargetDiam, Trials: p.Trials, Seed: p.Seed, Specs: specs,
	})
	if err != nil {
		return nil, err
	}
	body, err := json.MarshalIndent(serve.Result{
		Kind: dyndiam.ServeLeaderDegradation, Params: p,
		Table: dyndiam.FormatDegradationTable("LEADER", rows).String(),
		Data:  dyndiam.DegradationRowsJSON(rows),
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
