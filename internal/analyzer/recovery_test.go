package analyzer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"a4nn/internal/obs"
)

func TestRecoveryOf(t *testing.T) {
	events := []obs.Event{
		{Seq: 1, Type: obs.EventRunStart},
		{Seq: 2, Type: obs.EventModelResume, Model: "m1", Epoch: 7},
		{Seq: 3, Type: obs.EventRecovery, Model: "m2", Reason: "checksum", Msg: "quarantined"},
		{Seq: 4, Type: obs.EventRecovery, Model: "m3", Reason: "lost", Msg: "will retrain"},
		{Seq: 5, Type: obs.EventRecovery, Model: "m4", Reason: "stale", Msg: "removed"},
		{Seq: 6, Type: "alert_cmd", Msg: "alert-cmd fired x: exit 0"}, // legacy type: ignored
		{Seq: 7, Type: obs.EventRunStart},
		{Seq: 8, Type: obs.EventModelResume, Model: "m5", Epoch: 3},
	}
	r := RecoveryOf(events)
	want := RecoverySummary{
		Launches: 2, Resumes: 2, ResumedEpochs: 10,
		Quarantined: 1, Lost: 1, Stale: 1,
	}
	if r != want {
		t.Fatalf("RecoveryOf = %+v, want %+v", r, want)
	}
	if !r.Damaged() {
		t.Error("Damaged() = false with quarantined and lost files")
	}

	s := r.String()
	for _, frag := range []string{
		"launches 2", "checkpoint resumes 2", "10 epochs carried over",
		"quarantined 1", "lost records 1", "stale checkpoints cleaned 1",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}

	out := FormatRecovery(events)
	for _, frag := range []string{"resume", "m1", "checksum", "m3", "will retrain"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatRecovery missing %q in:\n%s", frag, out)
		}
	}
}

func TestRecoveryOfCleanRun(t *testing.T) {
	events := []obs.Event{{Seq: 1, Type: obs.EventRunStart}}
	r := RecoveryOf(events)
	if r.Damaged() {
		t.Error("Damaged() = true for a clean run")
	}
	if out := FormatRecovery(events); !strings.Contains(out, "no recovery events") {
		t.Errorf("FormatRecovery = %q", out)
	}
}

// TestRecoveryReadsLegacyAlertCmdLine reads a journal written while the
// alert-command sink still logged alert_cmd events: the retired type
// reads back like any other line and the summary ignores it.
func TestRecoveryReadsLegacyAlertCmdLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), obs.EventsFile)
	journal := `{"seq":1,"type":"run_start"}
{"seq":2,"type":"alert_cmd","alert":"devices/capacity","msg":"alert-cmd fired devices/capacity: exit 0"}
{"seq":3,"type":"recovery","model":"m1","reason":"lost","msg":"will retrain"}
`
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[1].Type != "alert_cmd" {
		t.Fatalf("ReadEvents = %+v, want all 3 lines", events)
	}
	if r := RecoveryOf(events); r != (RecoverySummary{Launches: 1, Lost: 1}) {
		t.Fatalf("RecoveryOf = %+v", r)
	}
	if out := FormatRecovery(events); !strings.Contains(out, "lost records 1") {
		t.Errorf("FormatRecovery = %q", out)
	}
}

// Damaged reports whether recovery found anything a human should look
// at (corruption or lost work, as opposed to clean resumes).
func (r RecoverySummary) Damaged() bool { return r.Quarantined > 0 || r.Lost > 0 }
