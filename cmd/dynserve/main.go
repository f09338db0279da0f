// Command dynserve serves the repo's experiments over HTTP/JSON as
// asynchronous jobs with content-addressed result caching.
//
//	go run ./cmd/dynserve -addr :8080
//
// Submit a job, poll its status, fetch its result:
//
//	curl -s -X POST localhost:8080/jobs \
//	    -d '{"kind":"gap_table","params":{"sizes":[16,32],"seed":1}}'
//	curl -s localhost:8080/jobs/<key>
//	curl -s localhost:8080/jobs/<key>/result
//
// Identical submissions (same kind and normalized params) deduplicate
// onto one cache entry and cost one harness execution; a full job queue
// answers 429 with a Retry-After hint. /metrics exposes the request,
// cache, queue, and latency counters as Prometheus text.
//
// -job-budget bounds each job's wall clock (a hung job degrades to a
// recorded error) and -round-budget caps harness rounds per run.
// -checkpoint FILE saves completed results on shutdown (SIGINT/SIGTERM);
// with -resume, results already recorded there are preloaded so a
// restarted service answers known keys from cache.
//
// Shutdown semantics: SIGTERM drains gracefully — new submissions are
// rejected (POST /jobs and /readyz answer 503, /healthz stays 200),
// every queued and in-flight job finishes within its budget, and only
// then is the checkpoint written. SIGINT shuts down fast: queued-but-
// unstarted jobs are dropped.
//
// Introspection: every job records a flight recording browsable at
// /debug/jobs and /debug/jobs/<key> (plus .../trace for Perfetto), and
// -pprof additionally exposes net/http/pprof under /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dyndiam"
	"dyndiam/internal/cliutil"
)

// options are the parsed flag values; split out so tests can exercise
// parsing without starting a listener.
type options struct {
	addr        string
	workers     int
	queueCap    int
	jobBudget   time.Duration
	roundBudget int
	checkpoint  string
	resume      bool
	pprof       bool
}

// parseOptions binds the flag set and parses args into options.
func parseOptions(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 2, "concurrent experiment jobs")
	fs.IntVar(&o.queueCap, "queue", 32, "job queue bound; a full queue answers 429")
	fs.DurationVar(&o.jobBudget, "job-budget", 2*time.Minute, "per-job wall-clock budget (0 = unlimited)")
	fs.IntVar(&o.roundBudget, "round-budget", 0, "harness round budget per run (0 = keep default)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "save completed results to this file on shutdown")
	fs.BoolVar(&o.resume, "resume", false, "preload results recorded in the -checkpoint file")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof profiles under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.resume && o.checkpoint == "" {
		return o, fmt.Errorf("-resume requires -checkpoint FILE")
	}
	return o, nil
}

// buildHandler wraps the service API with the optional pprof surface.
// The profile handlers are registered on a private mux (never the
// package-global http.DefaultServeMux), so profiling is strictly opt-in
// per instance; everything else falls through to the API handler,
// including the service's own /debug/jobs routes.
func buildHandler(api http.Handler, withPprof bool) http.Handler {
	if !withPprof {
		return api
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)
	return mux
}

// Client read timeouts: a client that trickles its request headers or
// body cannot hold a connection open for longer than these.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
)

// newHTTPServer builds the listener-side server around h with the client
// read timeouts set. Request bodies are capped by the service handler.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dynserve: ")

	opts, err := parseOptions(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if opts.roundBudget > 0 {
		dyndiam.SetRoundBudget(opts.roundBudget)
	}

	srv := dyndiam.NewExperimentServer(dyndiam.ServeConfig{
		Workers:   opts.workers,
		QueueCap:  opts.queueCap,
		JobBudget: opts.jobBudget,
	})
	if opts.resume && opts.checkpoint != "" {
		var saved []dyndiam.ServeCachedResult
		found, err := cliutil.LoadJSON(opts.checkpoint, &saved)
		if err != nil {
			log.Fatal(err)
		}
		if found {
			log.Printf("resumed %d cached results from %s", srv.Preload(saved), opts.checkpoint)
		}
	}

	httpSrv := newHTTPServer(opts.addr, buildHandler(srv.Handler(), opts.pprof))
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	log.Printf("serving experiments on %s (workers=%d queue=%d pprof=%v)", opts.addr, opts.workers, opts.queueCap, opts.pprof)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		if s == syscall.SIGTERM {
			// Graceful drain: stop accepting new jobs (/readyz flips to
			// 503, POST /jobs answers 503) but keep serving polls while
			// every queued and in-flight job finishes within its budget;
			// the checkpoint below then includes the drained work.
			log.Printf("received %v; draining: rejecting new jobs, finishing queued and in-flight work", s)
			srv.Drain()
		} else {
			// SIGINT stays the fast path: queued-but-unstarted jobs are
			// dropped, only in-flight work is waited out.
			log.Printf("received %v; shutting down", s)
			srv.Close()
		}
	}
	_ = httpSrv.Close()
	if opts.checkpoint != "" {
		results := srv.CachedResults()
		if err := cliutil.SaveJSON(opts.checkpoint, results); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved %d cached results to %s", len(results), opts.checkpoint)
	}
}
