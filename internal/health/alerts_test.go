package health

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"a4nn/internal/obs"
)

// tickManager is a manager whose check cycles come 1 ns apart: apply
// hands the wrapped manager the next instant, as the engine would.
type tickManager struct {
	*manager
	tick int64
}

func (m *tickManager) apply(findings []finding) {
	m.tick++
	m.manager.apply(time.Unix(0, m.tick), findings)
}

// status is the manager's aggregate status.
func status(m *manager) Status {
	st, _, _ := m.status("")
	return st
}

// testManager builds a manager with a deterministic clock.
func testManager(t *testing.T, resolveAfter int) (*tickManager, *obs.Observer) {
	t.Helper()
	o := obs.NewObserver()
	return &tickManager{manager: newManager(resolveAfter, o)}, o
}

func TestManagerFireDedupResolve(t *testing.T) {
	m, _ := testManager(t, 2)
	f := finding{Monitor: "divergence", Key: "m1", Severity: SevCritical, Message: "diverging", Value: 3, Threshold: 3}

	m.apply([]finding{f})
	a, ok := m.active["divergence/m1"]
	if !ok {
		t.Fatal("alert not fired")
	}
	if a.Count != 1 || a.Severity != SevCritical {
		t.Fatalf("fired alert = %+v", a)
	}
	if got := m.firedCritical.Value(); got != 1 {
		t.Fatalf("fired counter = %d, want 1", got)
	}

	// Repeats deduplicate into the same alert, bumping Count.
	m.apply([]finding{f})
	m.apply([]finding{f})
	if a.Count != 3 {
		t.Fatalf("Count = %d, want 3", a.Count)
	}
	if len(m.active) != 1 {
		t.Fatalf("active = %d, want 1", len(m.active))
	}
	if got := m.firedCritical.Value(); got != 1 {
		t.Fatalf("repeat re-counted as fired: %d", got)
	}

	// Flap suppression: one clean check does not resolve...
	m.apply(nil)
	if _, ok := m.active["divergence/m1"]; !ok {
		t.Fatal("alert resolved after a single clean check (resolveAfter=2)")
	}
	// ...and a re-report resets the clean streak.
	m.apply([]finding{f})
	m.apply(nil)
	if _, ok := m.active["divergence/m1"]; !ok {
		t.Fatal("clean streak survived a re-report")
	}
	// Two consecutive clean checks resolve.
	m.apply(nil)
	if _, ok := m.active["divergence/m1"]; ok {
		t.Fatal("alert still active after resolveAfter clean checks")
	}
	if len(m.resolved) != 1 || !m.resolved[0].Resolved || m.resolved[0].ResolvedAt == 0 {
		t.Fatalf("resolved history = %+v", m.resolved)
	}
	if got := m.resolvedTotal.Value(); got != 1 {
		t.Fatalf("resolved counter = %d, want 1", got)
	}
	if got := m.activeGauge.Value(); got != 0 {
		t.Fatalf("active gauge = %v, want 0", got)
	}
}

func TestManagerSeverityEscalation(t *testing.T) {
	m, o := testManager(t, 3)
	sub := o.Journal().Subscribe()
	defer sub.Close()

	m.apply([]finding{{Monitor: "devices", Key: "capacity", Severity: SevWarning, Message: "degraded"}})
	if status(m.manager) != StatusDegraded {
		t.Fatalf("status = %v, want degraded", status(m.manager))
	}
	m.apply([]finding{{Monitor: "devices", Key: "capacity", Severity: SevCritical, Message: "below floor"}})
	a := m.active["devices/capacity"]
	if a.Severity != SevCritical {
		t.Fatalf("severity = %s, want critical", a.Severity)
	}
	if status(m.manager) != StatusCritical {
		t.Fatalf("status = %v, want critical", status(m.manager))
	}
	// Escalation must not fire lower again: warning=1, critical=1.
	if w, c := m.firedWarning.Value(), m.firedCritical.Value(); w != 1 || c != 1 {
		t.Fatalf("fired warning=%d critical=%d, want 1 and 1", w, c)
	}
	// Both the fire and the escalation re-emitted as journal events.
	emits, _ := sub.Read(nil)
	if len(emits) != 2 || emits[0].Type != obs.EventAlert || emits[1].Severity != "critical" {
		t.Fatalf("journal emissions = %+v", emits)
	}
}

func TestManagerInfoDoesNotDegrade(t *testing.T) {
	m, _ := testManager(t, 3)
	m.apply([]finding{{Monitor: "plateau", Key: "m7", Severity: SevInfo, Message: "flat"}})
	if status(m.manager) != StatusOK {
		t.Fatalf("status = %v, want ok for info-only alerts", status(m.manager))
	}
}

func TestAlertsFilePersistAndRead(t *testing.T) {
	m, _ := testManager(t, 1)
	path := filepath.Join(t.TempDir(), AlertsFile)
	if err := m.openFile(path); err != nil {
		t.Fatal(err)
	}
	div := finding{Monitor: "divergence", Key: "m1", Severity: SevCritical, Message: "diverging"}
	cap := finding{Monitor: "devices", Key: "capacity", Severity: SevWarning, Message: "degraded"}
	m.apply([]finding{div, cap})
	m.apply([]finding{div, cap})
	m.apply([]finding{cap}) // divergence resolves (resolveAfter=1)
	if err := m.close(); err != nil {
		t.Fatal(err)
	}

	// Append a torn line; readers must skip it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"torn`)
	f.Close()

	alerts, err := ReadAlerts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 2 {
		t.Fatalf("ReadAlerts folded to %d alerts, want 2: %+v", len(alerts), alerts)
	}
	byID := map[string]Alert{}
	for _, a := range alerts {
		byID[a.ID] = a
	}
	if a := byID["divergence/m1"]; !a.Resolved || a.Count != 2 {
		t.Fatalf("divergence alert = %+v, want resolved with Count 2", a)
	}
	// The close snapshot carries the still-active alert's final Count.
	if a := byID["devices/capacity"]; a.Resolved || a.Count != 3 {
		t.Fatalf("capacity alert = %+v, want active with Count 3", a)
	}
}

func TestReadAlertsMissingFile(t *testing.T) {
	if _, err := ReadAlerts(filepath.Join(t.TempDir(), "nope.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}
