package webui

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"a4nn/internal/obs"
)

// sseEvent is one parsed frame from a text/event-stream body.
type sseEvent struct {
	ID   uint64
	Type string
	Data string
}

// sseStream owns the single goroutine reading a response body, so
// successive readSSE calls on the same stream never touch the reader
// concurrently.
type sseStream struct {
	lines chan string
	errs  chan error
}

func newSSEStream(r *bufio.Reader) *sseStream {
	s := &sseStream{lines: make(chan string), errs: make(chan error, 1)}
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				s.errs <- err
				return
			}
			s.lines <- strings.TrimRight(line, "\n")
		}
	}()
	return s
}

// readSSE parses frames off the stream until n events or a timeout.
func readSSE(t *testing.T, s *sseStream, n int, timeout time.Duration) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	deadline := time.Now().Add(timeout)
	for len(out) < n {
		select {
		case line := <-s.lines:
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.ID, _ = strconv.ParseUint(line[4:], 10, 64)
			case strings.HasPrefix(line, "event: "):
				cur.Type = line[7:]
			case strings.HasPrefix(line, "data: "):
				cur.Data = line[6:]
			case line == "":
				out = append(out, cur)
				cur = sseEvent{}
			}
		case err := <-s.errs:
			t.Fatalf("stream ended after %d/%d events: %v", len(out), n, err)
		case <-time.After(time.Until(deadline)):
			t.Fatalf("timed out with %d/%d events", len(out), n)
		}
	}
	return out
}

func sseServer(t *testing.T) (*httptest.Server, *obs.Observer) {
	t.Helper()
	srv, err := New(testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	srv.SetObserver(o)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, o
}

// TestEventsSSEReplayAndLive covers the /events contract end to end:
// a client reconnecting with Last-Event-ID gets exactly the events it
// missed replayed in order, then receives live events as they are
// emitted, with no gap and no duplicates at the replay/live seam.
func TestEventsSSEReplayAndLive(t *testing.T) {
	ts, o := sseServer(t)
	j := o.Journal()
	for i := 1; i <= 5; i++ {
		j.Emit(obs.Event{Type: obs.EventEpoch, Epoch: i, ValAcc: float64(10 * i)})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	stream := newSSEStream(bufio.NewReader(resp.Body))
	replay := readSSE(t, stream, 3, 5*time.Second)
	emitted := j.Since(2)
	for i, e := range replay {
		if want := uint64(3 + i); e.ID != want {
			t.Fatalf("replay[%d] id = %d, want %d", i, e.ID, want)
		}
		if e.Type != obs.EventEpoch {
			t.Fatalf("replay[%d] type = %q", i, e.Type)
		}
		// The data is the event's JSON, byte for byte.
		if want, _ := json.Marshal(emitted[i]); e.Data != string(want) {
			t.Fatalf("replay[%d] data %s, want %s", i, e.Data, want)
		}
	}

	// Replay received, so the handler's subscription is live: a fresh
	// emit must arrive as event 6.
	j.Emit(obs.Event{Type: obs.EventModelDone, Model: "m9", Fitness: 88})
	live := readSSE(t, stream, 1, 5*time.Second)
	if live[0].ID != 6 || live[0].Type != obs.EventModelDone {
		t.Fatalf("live event = %+v", live[0])
	}
	if !strings.Contains(live[0].Data, `"model":"m9"`) {
		t.Fatalf("live data %q", live[0].Data)
	}
}

func TestEventsSSELastIDQueryParam(t *testing.T) {
	ts, o := sseServer(t)
	j := o.Journal()
	for i := 1; i <= 4; i++ {
		j.Emit(obs.Event{Type: obs.EventEpoch, Epoch: i})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events?last_id=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := readSSE(t, newSSEStream(bufio.NewReader(resp.Body)), 1, 5*time.Second)
	if got[0].ID != 4 {
		t.Fatalf("first replayed id = %d, want 4", got[0].ID)
	}
}

// TestEventsHandlerNilJournal: a job whose run has no observer yet, so
// no event journal, answers its /events stream 503, not a panic.
func TestEventsHandlerNilJournal(t *testing.T) {
	mux := http.NewServeMux()
	mountJobRuns(mux, func(string) (Run, error) { return Run{}, nil })
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/jobs/j1/events", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "event journal unavailable") {
		t.Fatalf("nil-journal events: %d\n%s", rec.Code, rec.Body.String())
	}
}

func TestDashboardServed(t *testing.T) {
	ts, _ := sseServer(t)
	code, body := get(t, ts.URL+"/dashboard")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"EventSource", "/events", "pareto_update", "Device utilization"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// The alert strip backfills from /api/alerts before the stream
	// connects, so a reload shows alerts that fired before page load.
	// Both URLs come from body data attributes so per-job dashboards can
	// rebind them.
	for _, want := range []string{
		`data-events="/events"`, `data-alerts="/api/alerts"`,
		`fetch(document.body.dataset.alerts)`, "d.active.forEach",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing alert backfill fragment %q", want)
		}
	}
	if strings.Index(body, "dataset.alerts") > strings.Index(body, "new EventSource") {
		t.Fatal("alert backfill must be wired before the EventSource connects")
	}
}

func TestDashboardPageRebind(t *testing.T) {
	page := dashboardPage("/api/jobs/j1/events", "/api/jobs/j1/alerts",
		"/api/jobs/j1/query", "/api/jobs/j1/series")
	for _, want := range []string{
		`data-events="/api/jobs/j1/events"`, `data-alerts="/api/jobs/j1/alerts"`,
		`data-query="/api/jobs/j1/query"`, `data-series="/api/jobs/j1/series"`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("rebound dashboard missing %q", want)
		}
	}
	for _, stale := range []string{`data-events="/events"`, `data-alerts="/api/alerts"`, `data-query="/api/query"`} {
		if strings.Contains(page, stale) {
			t.Fatalf("rebound dashboard still has %q", stale)
		}
	}
}

func TestNoEventsEndpointWithoutObserver(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := get(t, ts.URL+"/events"); code != 404 {
		t.Fatalf("/events without observer: %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/dashboard"); code != 404 {
		t.Fatalf("/dashboard without observer: %d, want 404", code)
	}
}
