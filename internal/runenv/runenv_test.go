package runenv

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"a4nn/internal/health"
	"a4nn/internal/obs"
	"a4nn/internal/tsdb"
)

// everything turns on every part of the stack, as a job does.
func everything(parent *obs.Registry, dir string) Options {
	return Options{
		Parent:       parent,
		ScopeLabel:   "job",
		ScopeValue:   filepath.Base(dir),
		History:      time.Millisecond,
		Health:       &health.Config{},
		ManifestPath: filepath.Join(dir, "job.json"),
	}
}

// baseline is the process-wide state an open stack adds to; check fails
// the test unless all of it is back.
type baseline struct {
	parent                   *obs.Registry
	series, dbs, armed, gors int
}

func takeBaseline(parent *obs.Registry) baseline {
	runtime.GC()
	return baseline{parent: parent, series: parent.NumSeries(), dbs: tsdb.OpenDBs(),
		armed: obs.ArmedRecorders(), gors: runtime.NumGoroutine()}
}

func (b baseline) check(t *testing.T) {
	t.Helper()
	if got := b.parent.Scopes(); got != 0 {
		t.Errorf("live scopes = %d, want 0", got)
	}
	if got := b.parent.NumSeries(); got != b.series {
		t.Errorf("registry series = %d, want baseline %d", got, b.series)
	}
	if got := tsdb.OpenDBs(); got != b.dbs {
		t.Errorf("open history stores = %d, want baseline %d", got, b.dbs)
	}
	if got := obs.ArmedRecorders(); got != b.armed {
		t.Errorf("armed recorders = %d, want baseline %d", got, b.armed)
	}
	// Every goroutine the stack starts is joined by Close, but the runtime
	// may lag in reaping them.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if g := runtime.NumGoroutine(); g <= b.gors {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines = %d, baseline %d; stacks:\n%s", g, b.gors, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestOpenCloseReleasesEverything is jobs.TestManagerObservabilityRelease's
// contract held against the stack itself.
func TestOpenCloseReleasesEverything(t *testing.T) {
	parent := obs.NewRegistry()
	root := t.TempDir()
	base := takeBaseline(parent)
	for i := 0; i < 100; i++ {
		dir := filepath.Join(root, "run", string(rune('a'+i%26)))
		s, err := Open(dir, everything(parent, dir))
		if err != nil {
			t.Fatal(err)
		}
		if s.Observer() == nil || s.Recorder() == nil || s.History() == nil || s.Sampler() == nil || s.Health() == nil {
			t.Fatal("a part of the stack is missing")
		}
		if parent.Scopes() != 1 || obs.ArmedRecorders() != base.armed+1 || tsdb.OpenDBs() != base.dbs+1 {
			t.Fatal("open stack is not registered with its parent, the armed set and the open stores")
		}
		sub := s.Observer().Journal().Subscribe()
		s.Observer().Journal().Emit(obs.Event{Type: obs.EventRunStart})
		s.Observer().Registry().Counter("runenv_test_total").Inc()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for open := true; open; {
			_, open = sub.Read(nil) // Close closes subscribers
		}
	}
	base.check(t)

	// The files a run leaves behind are complete and decodable.
	dir := filepath.Join(root, "run", "a")
	for _, name := range []string{obs.EventsFile, obs.MetricsFile, health.AlertsFile, tsdb.SeriesFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("after Close: %v", err)
		}
	}
	db, err := tsdb.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	found := false
	for _, info := range db.Series() {
		found = found || strings.HasPrefix(info.Name, "runenv_test_total")
	}
	if !found {
		t.Error("the sampler's final sample did not reach the series file")
	}
}

// TestOpenFailureLeaksNothing fails Open at each step that touches the
// directory by putting a directory where the step's file should go.
func TestOpenFailureLeaksNothing(t *testing.T) {
	for _, name := range []string{obs.EventsFile, tsdb.SeriesFile, health.AlertsFile} {
		t.Run(name, func(t *testing.T) {
			parent := obs.NewRegistry()
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
				t.Fatal(err)
			}
			base := takeBaseline(parent)
			if s, err := Open(dir, everything(parent, dir)); err == nil {
				s.Close()
				t.Fatalf("Open succeeded with a directory at %s", name)
			}
			base.check(t)
			if _, err := os.Stat(filepath.Join(dir, obs.MetricsFile)); err == nil {
				t.Errorf("failed Open flushed %s", obs.MetricsFile)
			}
		})
	}
	if _, err := Open("", Options{History: time.Second}); err == nil {
		t.Error("History without a directory must fail")
	}
}

// TestCloseDrainsHealthIntoOpenFiles: an alert the engine raises only
// while Close drains it must still reach events.jsonl and alerts.jsonl,
// and a second Close must change nothing.
func TestCloseDrainsHealthIntoOpenFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Health: &health.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	// The recovery monitor raises its alert on the check after the event;
	// the event is still queued for the engine when Close begins.
	s.Observer().Journal().Emit(obs.Event{Type: obs.EventRecovery, Reason: "crc", Model: "m"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := os.ReadFile(filepath.Join(dir, obs.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if again, _ := os.ReadFile(filepath.Join(dir, obs.EventsFile)); string(again) != string(events) {
		t.Error("second Close wrote to the journal")
	}

	const id = "recovery/damage"
	journal, err := obs.ReadEvents(filepath.Join(dir, obs.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	inJournal := false
	for _, e := range journal {
		inJournal = inJournal || (e.Type == obs.EventAlert && e.AlertID == id)
	}
	alerts, err := health.ReadAlerts(filepath.Join(dir, health.AlertsFile))
	if err != nil {
		t.Fatal(err)
	}
	inAlerts := false
	for _, a := range alerts {
		inAlerts = inAlerts || a.ID == id
	}
	if !inJournal || !inAlerts {
		t.Errorf("alert %s: in events.jsonl %v, in alerts.jsonl %v; want both", id, inJournal, inAlerts)
	}

	var none *Stack
	if none.Observer() != nil || none.Health() != nil || none.History() != nil || none.Close() != nil {
		t.Error("a nil stack must be the disabled one")
	}
}
