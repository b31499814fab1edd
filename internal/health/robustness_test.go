package health

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/obs"
)

// fireWarning drives the devicepool monitor into a warning (one dead
// device out of four), the cheapest deterministic alert.
func fireWarning(e *Engine) {
	e.Observe(obs.Event{Type: obs.EventRunStart, Devices: 4})
	e.Observe(obs.Event{Type: obs.EventGenerationStart, Gen: 1, Devices: 3})
}

func TestDiskMonitorWatermarks(t *testing.T) {
	cfg := testConfig()
	cfg.DiskPath = t.TempDir()
	e, _ := testEngine(t, cfg)
	if !slices.Contains(rowNames(e), "disk") {
		t.Fatal("DiskPath set but no disk monitor registered")
	}
	mon := &e.disk
	free := uint64(50)
	mon.statfs = func(string) (diskUsage, error) {
		return diskUsage{totalBytes: 100, availBytes: free}, nil
	}
	stepClock(e, cfg.SampleInterval+time.Second) // every check samples the disk

	e.Check()
	if len(e.ActiveAlerts()) != 0 {
		t.Fatalf("alert at 50%% free: %+v", e.ActiveAlerts())
	}
	free = 8 // below 10% warning watermark
	e.Check()
	a, ok := activeIDs(e)["disk/space"]
	if !ok || a.Severity != SevWarning {
		t.Fatalf("want disk/space warning, active = %+v", e.ActiveAlerts())
	}
	free = 2 // below 3% critical watermark
	e.Check()
	if a := activeIDs(e)["disk/space"]; a.Severity != SevCritical {
		t.Fatalf("want escalation to critical, got %+v", a)
	}
	if e.Status() != StatusCritical {
		t.Fatalf("status = %v, want critical", e.Status())
	}
	// Space freed: the alert resolves through flap suppression.
	free = 60
	for i := 0; i < cfg.ResolveAfter; i++ {
		e.Check()
	}
	if len(e.ActiveAlerts()) != 0 {
		t.Fatalf("disk alert survived cleanup: %+v", e.ActiveAlerts())
	}
	if !strings.Contains(e.diskDetail(), "60.0% free") {
		t.Fatalf("detail = %q", e.diskDetail())
	}
}

func TestDiskMonitorStatFailure(t *testing.T) {
	cfg := testConfig()
	cfg.DiskPath = "/nonexistent"
	e, _ := testEngine(t, cfg)
	e.disk.statfs = func(string) (diskUsage, error) {
		return diskUsage{}, fmt.Errorf("no such filesystem")
	}
	e.Check()
	if _, ok := activeIDs(e)["disk/stat"]; !ok {
		t.Fatalf("stat failure did not warn; active = %+v", e.ActiveAlerts())
	}
}

func TestRecoveryMonitorAlertsOnDamage(t *testing.T) {
	e, _ := testEngine(t, testConfig())
	// Normal recovery mechanics (resume, stale cleanup) stay quiet.
	e.Observe(obs.Event{Type: obs.EventModelResume, Model: "m1", Epoch: 5})
	e.Observe(obs.Event{Type: obs.EventRecovery, Model: "m2", Reason: "stale"})
	if len(e.ActiveAlerts()) != 0 {
		t.Fatalf("benign recovery fired an alert: %+v", e.ActiveAlerts())
	}
	// Damage warns.
	e.Observe(obs.Event{Type: obs.EventRecovery, Model: "m3", Reason: "checksum",
		Msg: "quarantined corrupt checkpoint m3 (checksum)"})
	a, ok := activeIDs(e)["recovery/damage"]
	if !ok || a.Severity != SevWarning {
		t.Fatalf("want recovery/damage warning, active = %+v", e.ActiveAlerts())
	}
	e.Observe(obs.Event{Type: obs.EventRecovery, Model: "m4", Reason: "lost"})
	d := e.recoveryDetail()
	for _, want := range []string{"1 quarantined", "1 lost", "1 stale", "1 checkpoint resumes"} {
		if !strings.Contains(d, want) {
			t.Fatalf("detail %q missing %q", d, want)
		}
	}
	// Quiet checks resolve the damage alert.
	for i := 0; i < testConfig().ResolveAfter+1; i++ {
		e.Check()
	}
	if len(e.ActiveAlerts()) != 0 {
		t.Fatalf("damage alert never resolved: %+v", e.ActiveAlerts())
	}
}

func TestRuntimeSampleEmitAndAdopt(t *testing.T) {
	// Producer: EmitRuntimeSamples publishes runtime_sample events.
	cfg := testConfig()
	cfg.SampleInterval = time.Nanosecond
	cfg.EmitRuntimeSamples = true
	e, o := testEngine(t, cfg)
	sub := o.Journal().Subscribe()
	defer sub.Close()
	e.Check()
	batch, _ := sub.Read(nil)
	if len(batch) == 0 {
		t.Fatal("no runtime_sample emitted")
	}
	sample := batch[0]
	if sample.Type != obs.EventRuntimeSample || sample.Goroutines == 0 || sample.HeapBytes == 0 {
		t.Fatalf("sample = %+v", sample)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Consumer: a follower engine adopts the producer's readings and
	// stops sampling its own runtime.
	follower, _ := testEngine(t, testConfig())
	mon := &follower.runtime
	external := obs.Event{Type: obs.EventRuntimeSample,
		Goroutines: 4242, HeapBytes: 1 << 30, GCPauseSec: 0.001}
	follower.Observe(external)
	if !follower.fold.adopted || mon.goroutines != 4242 || mon.heapBytes != 1<<30 {
		t.Fatalf("follower did not adopt the external sample: %+v", mon)
	}
	follower.Check() // must not overwrite with a local sample
	if mon.goroutines != 4242 {
		t.Fatalf("local sampling overwrote adopted readings: %d", mon.goroutines)
	}
	// The adopted goroutine count breaches MaxGoroutines=2000 → alert
	// about the *producer's* runtime.
	if _, ok := activeIDs(follower)["runtime/goroutines"]; !ok {
		t.Fatalf("adopted sample did not drive thresholds; active = %+v", follower.ActiveAlerts())
	}

	// A producer ignores its own samples coming back from the journal.
	prod, _ := testEngine(t, cfg)
	prod.Observe(external)
	if prod.fold.adopted {
		t.Fatal("producer adopted an external sample")
	}
}

func TestAlertsAppendChaosPoint(t *testing.T) {
	t.Cleanup(func() { chaos.Install(nil) })
	e, _ := testEngine(t, testConfig())
	path := filepath.Join(t.TempDir(), AlertsFile)
	if err := e.OpenAlertsFile(path); err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.Parse("err=" + chaos.PointAlertsAppend + "@1")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Install(plan)
	fireWarning(e) // first persist hits the injected error
	chaos.Install(nil)
	if e.mgr.fileErrs.Value() == 0 {
		t.Fatal("injected append error not counted")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The close snapshot still landed; the file reads back fine.
	alerts, err := ReadAlerts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].ID != "devices/capacity" {
		t.Fatalf("alerts = %+v", alerts)
	}
}

// TestAlertsFileTornTailKeepsNextAlert reopens an alerts file whose last
// append was killed mid-line: the first transition of the resumed run
// must land on its own line, not glued onto the fragment and skipped
// with it.
func TestAlertsFileTornTailKeepsNextAlert(t *testing.T) {
	path := filepath.Join(t.TempDir(), AlertsFile)
	torn := `{"id":"old","monitor":"old","severity":"info","msg":"m","count":1,"fired_at":1,"updated_at":1}` + "\n" + `{"id":"devi`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	e, _ := testEngine(t, testConfig())
	if err := e.OpenAlertsFile(path); err != nil {
		t.Fatal(err)
	}
	fireWarning(e)
	// Read before Close: its snapshot of active alerts would re-append
	// the lost line and hide the gap a kill here would leave.
	alerts, err := ReadAlerts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 2 || alerts[0].ID != "old" || alerts[1].ID != "devices/capacity" {
		t.Fatalf("alerts = %+v, want the old one and the one fired after the torn tail", alerts)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func FuzzReadAlerts(f *testing.F) {
	f.Add([]byte(`{"id":"a","monitor":"m","severity":"warning","msg":"x","count":1,"fired_at":1,"updated_at":1}` + "\n"))
	f.Add([]byte(`{"id":"a","count":1,"fired_at":1}` + "\n" + `{"id":"a","count":2,"fired_at":1,"resolved":true}` + "\n"))
	f.Add([]byte("{\"id\":\"torn\",\"cou")) // torn tail
	f.Add([]byte("\n\nnot json\n{}\n"))
	f.Add([]byte{0x00, 0xFF, 0x7B, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), AlertsFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		alerts, err := ReadAlerts(path)
		if err != nil {
			return // oversized line etc.; must not panic
		}
		for _, a := range alerts {
			if a.ID == "" {
				t.Fatal("ReadAlerts returned an alert with no ID")
			}
		}
	})
}
