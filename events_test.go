package a4nn

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"a4nn/internal/webui"
)

// collectSSE reads /events frames until stop returns true for a frame
// (inclusive) or the timeout expires, returning the events in arrival
// order. The request context is canceled on return, detaching the
// subscriber. Safe to call from any goroutine (errors are returned,
// not reported via t).
func collectSSE(url, lastEventID string, timeout time.Duration, stop func(Event) bool) ([]Event, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("/events status %d", resp.StatusCode)
	}
	var out []Event
	var cur Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.Seq, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.Type = line[7:]
		case line == "":
			out = append(out, cur)
			if stop(cur) {
				return out, nil
			}
			cur = Event{}
		}
	}
	return out, fmt.Errorf("stream ended after %d events: %v", len(out), sc.Err())
}

// TestEventStreamEndToEnd runs a real (surrogate) search with the
// journal attached and a live SSE client watching /events, then
// reconnects with Last-Event-ID and checks the gap is replayed — the
// full in situ analytics path: search → journal → subscriber →
// SSE → dashboard consumer.
func TestEventStreamEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenCommons(dir)
	if err != nil {
		t.Fatal(err)
	}
	observer := NewObserver()
	if err := observer.Journal().OpenFile(filepath.Join(dir, EventsFile)); err != nil {
		t.Fatal(err)
	}
	srv, err := webui.New(store)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetObserver(observer)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The live client connects before the search starts; with no
	// Last-Event-ID it replays from the beginning, so it sees every
	// event regardless of connection timing.
	type streamResult struct {
		events []Event
		err    error
	}
	liveDone := make(chan streamResult, 1)
	go func() {
		evs, err := collectSSE(ts.URL+"/events", "", 60*time.Second,
			func(e Event) bool { return e.Type == "run_end" })
		liveDone <- streamResult{evs, err}
	}()

	trainer, err := SurrogateTrainer(MediumBeam)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(trainer)
	cfg.NAS = NASConfig{PopulationSize: 4, Offspring: 4, Generations: 2, Seed: 7}
	cfg.MaxEpochs = 8
	cfg.Devices = 2
	cfg.Store = store
	cfg.Beam = "medium"
	cfg.Obs = observer
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 8 {
		t.Fatalf("evaluated %d models", len(res.Models))
	}

	var live []Event
	select {
	case r := <-liveDone:
		if r.err != nil {
			t.Fatal(r.err)
		}
		live = r.events
	case <-time.After(60 * time.Second):
		t.Fatal("live client never saw run_end")
	}

	// Ordered, gap-free, and shaped like a run.
	seen := map[string]int{}
	for i, e := range live {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		seen[e.Type]++
	}
	if live[0].Type != "run_start" || live[len(live)-1].Type != "run_end" {
		t.Fatalf("stream starts with %q and ends with %q", live[0].Type, live[len(live)-1].Type)
	}
	if seen["generation_start"] != 2 || seen["generation_end"] != 2 {
		t.Fatalf("generation events %d/%d, want 2/2", seen["generation_start"], seen["generation_end"])
	}
	for _, typ := range []string{"task_dispatch", "epoch", "model_done", "pareto_update"} {
		if seen[typ] == 0 {
			t.Fatalf("no %s events in %v", typ, seen)
		}
	}

	// A client that disconnected mid-run reconnects with Last-Event-ID
	// and receives exactly the events it missed, in order.
	gapFrom := len(live) / 2
	lastSeen := live[gapFrom-1].Seq
	replay, err := collectSSE(ts.URL+"/events", strconv.FormatUint(lastSeen, 10), 30*time.Second,
		func(e Event) bool { return e.Seq == live[len(live)-1].Seq })
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(live)-gapFrom {
		t.Fatalf("replay returned %d events, want %d", len(replay), len(live)-gapFrom)
	}
	for i, e := range replay {
		if want := live[gapFrom+i]; e.Seq != want.Seq || e.Type != want.Type {
			t.Fatalf("replay[%d] = seq %d %q, want seq %d %q", i, e.Seq, e.Type, want.Seq, want.Type)
		}
	}

	// The crash-safe journal on disk holds the same stream.
	fromDisk, err := ReadEvents(filepath.Join(dir, EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDisk) != len(live) {
		t.Fatalf("events.jsonl holds %d events, stream delivered %d", len(fromDisk), len(live))
	}
	for i, e := range fromDisk {
		if e.Seq != live[i].Seq || e.Type != live[i].Type {
			t.Fatalf("disk[%d] = seq %d %q, stream had seq %d %q", i, e.Seq, e.Type, live[i].Seq, live[i].Type)
		}
	}
}
