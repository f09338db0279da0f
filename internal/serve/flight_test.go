package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyndiam/internal/harness"
	"dyndiam/internal/obs"
)

// debugJobDump mirrors handleDebugJob's response body.
type debugJobDump struct {
	Job     JobView           `json:"job"`
	Events  []flightEventJSON `json:"events"`
	Dropped int               `json:"dropped"`
	Metrics []obs.MetricPoint `json:"metrics"`
}

// submitAndWait pushes one job through the HTTP submit path and blocks
// until it reaches a terminal status, returning its content key.
func submitAndWait(t *testing.T, s *Server, ts *httptest.Server, body string) string {
	t.Helper()
	resp, data := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d body %s", resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Wait(view.Key); !ok {
		t.Fatalf("Wait(%q) lost the job", view.Key)
	}
	return view.Key
}

func getDebugDump(t *testing.T, ts *httptest.Server, key string) debugJobDump {
	t.Helper()
	resp, data := getPath(t, ts, "/debug/jobs/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug dump status = %d body %s", resp.StatusCode, data)
	}
	var dump debugJobDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

func TestFlightRecorderLifecycle(t *testing.T) {
	t.Parallel()
	s, ts := newHTTPServer(t, Config{Workers: 1})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	// The index lists the job with its event count.
	resp, data := getPath(t, ts, "/debug/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	var index struct {
		Jobs []debugJobSummary `json:"jobs"`
	}
	if err := json.Unmarshal(data, &index); err != nil {
		t.Fatal(err)
	}
	if len(index.Jobs) != 1 || index.Jobs[0].Key != key {
		t.Fatalf("index = %+v", index.Jobs)
	}
	if index.Jobs[0].Status != StatusDone || index.Jobs[0].Events != 4 || index.Jobs[0].Dropped != 0 {
		t.Errorf("index row = %+v, want done with 4 events, 0 dropped", index.Jobs[0])
	}

	// The dump holds the full lifecycle: queue_wait open/close, execute
	// open/close, all on the job lane, on a nondecreasing ms clock.
	dump := getDebugDump(t, ts, key)
	if dump.Job.Status != StatusDone {
		t.Fatalf("dumped job = %+v", dump.Job)
	}
	want := []struct {
		kind, name string
		a          int64
	}{
		{"span_begin", "queue_wait", -1},
		{"span_end", "queue_wait", -1},
		{"span_begin", "execute", -1},
		{"span_end", "execute", 0}, // 0 = completed without error
	}
	if len(dump.Events) != len(want) {
		t.Fatalf("events = %+v, want %d lifecycle events", dump.Events, len(want))
	}
	for i, w := range want {
		ev := dump.Events[i]
		if ev.Kind != w.kind || ev.Name != w.name || ev.A != w.a || ev.Track != jobTrack {
			t.Errorf("event[%d] = %+v, want kind %s name %s a %d on track %d", i, ev, w.kind, w.name, w.a, jobTrack)
		}
		if i > 0 && ev.T < dump.Events[i-1].T {
			t.Errorf("event[%d] at t=%d before event[%d] at t=%d", i, ev.T, i-1, dump.Events[i-1].T)
		}
	}

	// The terminal metric snapshot reflects the finished job.
	if len(dump.Metrics) == 0 {
		t.Fatal("terminal metric snapshot missing")
	}
	byName := map[string]int64{}
	for _, p := range dump.Metrics {
		byName[p.Name] = p.Value
	}
	if byName["serve_harness_executions_total"] != 1 {
		t.Errorf("snapshot executions = %d, want 1", byName["serve_harness_executions_total"])
	}
	if byName["serve_jobs_failed_total"] != 0 {
		t.Errorf("snapshot failed = %d, want 0", byName["serve_jobs_failed_total"])
	}

	// The trace endpoint serves Chrome trace-event JSON with both spans
	// as complete ("X") events.
	resp, data = getPath(t, ts, "/debug/jobs/"+key+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	spans := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = true
		}
	}
	if !spans["queue_wait"] || !spans["execute"] {
		t.Errorf("trace spans = %v, want queue_wait and execute as X events", spans)
	}
}

func TestFlightRecorderFailedJob(t *testing.T) {
	t.Parallel()
	s, ts := newHTTPServer(t, Config{
		Workers: 1,
		Exec: func(Kind, Params) ([]byte, error) {
			return nil, errors.New("synthetic sweep failure")
		},
	})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	dump := getDebugDump(t, ts, key)
	if dump.Job.Status != StatusFailed || !strings.Contains(dump.Job.Err, "synthetic sweep failure") {
		t.Fatalf("dumped job = %+v, want failed with the exec error", dump.Job)
	}
	last := dump.Events[len(dump.Events)-1]
	if last.Kind != "span_end" || last.Name != "execute" || last.A != 1 {
		t.Errorf("terminal event = %+v, want execute span_end with a=1 (failed)", last)
	}
	for _, p := range dump.Metrics {
		if p.Name == "serve_jobs_failed_total" && p.Value != 1 {
			t.Errorf("snapshot failed = %d, want 1", p.Value)
		}
	}
}

func TestFlightRecorderRingBounds(t *testing.T) {
	t.Parallel()
	// A cap of 2 keeps only the newest two of the four lifecycle events
	// and reports the rest as dropped instead of growing.
	s, ts := newHTTPServer(t, Config{Workers: 1, FlightRecorderCap: 2})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	dump := getDebugDump(t, ts, key)
	if len(dump.Events) != 2 || dump.Dropped != 2 {
		t.Fatalf("events = %d dropped = %d, want 2 kept / 2 dropped", len(dump.Events), dump.Dropped)
	}
	last := dump.Events[len(dump.Events)-1]
	if last.Kind != "span_end" || last.Name != "execute" {
		t.Errorf("newest event = %+v, want the terminal execute span_end", last)
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	t.Parallel()
	s, ts := newHTTPServer(t, Config{Workers: 1, FlightRecorderCap: -1})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	// The index still lists the job, just without events.
	resp, data := getPath(t, ts, "/debug/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	var index struct {
		Jobs []debugJobSummary `json:"jobs"`
	}
	if err := json.Unmarshal(data, &index); err != nil {
		t.Fatal(err)
	}
	if len(index.Jobs) != 1 || index.Jobs[0].Events != 0 {
		t.Fatalf("index = %+v, want the job with 0 events", index.Jobs)
	}

	for _, path := range []string{"/debug/jobs/" + key, "/debug/jobs/" + key + "/trace"} {
		resp, data := getPath(t, ts, path)
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(data), "disabled") {
			t.Errorf("GET %s = %d %s, want 404 explaining recording is disabled", path, resp.StatusCode, data)
		}
	}
}

func TestFlightRecorderUnknownKey(t *testing.T) {
	t.Parallel()
	_, ts := newHTTPServer(t, Config{})
	for _, path := range []string{"/debug/jobs/no-such-key", "/debug/jobs/no-such-key/trace"} {
		resp, data := getPath(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d %s, want 404", path, resp.StatusCode, data)
		}
	}
}

func TestFlightRecorderCaptureSweepSpans(t *testing.T) {
	// Not parallel: the harness's span capture is process-global, so a
	// sweep run by a concurrent test (the golden test runs the same gap
	// table directly) would land in this job's recording.
	//
	// The stub runs a real two-cell harness sweep so the capture window
	// opened by captureSweepSpans has cells to record.
	s, ts := newHTTPServer(t, Config{
		Workers:           1,
		CaptureSweepSpans: true,
		Exec: func(kind Kind, p Params) ([]byte, error) {
			if _, err := harness.GapTable([]int{8, 12}, 2, 5); err != nil {
				return nil, err
			}
			return stubBody(kind, p), nil
		},
	})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	dump := getDebugDump(t, ts, key)
	// 4 lifecycle events + 2 cells x (begin, end).
	if len(dump.Events) != 8 {
		t.Fatalf("events = %+v, want 8 (lifecycle + 2 sweep cells)", dump.Events)
	}
	var cells []flightEventJSON
	for _, ev := range dump.Events {
		if ev.Track == 1 {
			cells = append(cells, ev)
		}
	}
	if len(cells) != 4 {
		t.Fatalf("sweep-lane events = %+v, want 4", cells)
	}
	for i, ev := range cells {
		wantKind := "span_begin"
		if i%2 == 1 {
			wantKind = "span_end"
		}
		cell := int32(i / 2)
		if ev.Kind != wantKind || ev.Name != "sweep_cell" || ev.Node != cell || ev.A <= 0 {
			t.Errorf("sweep event[%d] = %+v, want %s for cell %d with positive rounds", i, ev, wantKind, cell)
		}
	}
	// The folded spans land before the terminal execute span_end, so the
	// Perfetto view nests cells inside the job's execution window.
	last := dump.Events[len(dump.Events)-1]
	if last.Name != "execute" || last.Kind != "span_end" {
		t.Errorf("newest event = %+v, want the terminal execute span_end", last)
	}
}
