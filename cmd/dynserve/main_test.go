package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func parse(t *testing.T, args ...string) (options, error) {
	t.Helper()
	fs := flag.NewFlagSet("dynserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, args)
}

func TestParseOptions(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want options
	}{
		{
			name: "defaults",
			want: options{addr: ":8080", workers: 2, queueCap: 32, jobBudget: 2 * time.Minute},
		},
		{
			name: "all flags",
			args: []string{
				"-addr", "127.0.0.1:9999", "-workers", "8", "-queue", "4",
				"-job-budget", "30s", "-round-budget", "50000",
				"-checkpoint", "state.json", "-resume", "-pprof",
			},
			want: options{
				addr: "127.0.0.1:9999", workers: 8, queueCap: 4,
				jobBudget: 30 * time.Second, roundBudget: 50000,
				checkpoint: "state.json", resume: true, pprof: true,
			},
		},
		{
			name: "unlimited job budget",
			args: []string{"-job-budget", "0"},
			want: options{addr: ":8080", workers: 2, queueCap: 32},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("options = %+v want %+v", got, tc.want)
			}
		})
	}
}

// get issues one request against h and returns the status code.
func get(t *testing.T, h http.Handler, path string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code
}

func TestBuildHandlerPprof(t *testing.T) {
	api := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot) // marker: the request reached the API
	})

	off := buildHandler(api, false)
	if code := get(t, off, "/debug/pprof/"); code != http.StatusTeapot {
		t.Errorf("pprof off: /debug/pprof/ = %d, want pass-through to API", code)
	}

	on := buildHandler(api, true)
	if code := get(t, on, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof on: /debug/pprof/ = %d, want 200 index", code)
	}
	if code := get(t, on, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof on: /debug/pprof/cmdline = %d, want 200", code)
	}
	// Everything else still reaches the service API, including its own
	// debug routes.
	for _, path := range []string{"/jobs", "/metrics", "/debug/jobs", "/debug/jobs/abc"} {
		if code := get(t, on, path); code != http.StatusTeapot {
			t.Errorf("pprof on: %s = %d, want pass-through to API", path, code)
		}
	}
}

func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, ReadTimeout %v: both must be set", s.ReadHeaderTimeout, s.ReadTimeout)
	}
}

func TestParseOptionsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "zebra"},
		{"-job-budget", "banana"},
		{"-no-such-flag"},
		// -resume is a bool: a trailing file name is a usage error, not a
		// silently ignored positional (the easy way to resume nothing).
		{"-resume", "state.json"},
		{"-resume"},
	} {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
