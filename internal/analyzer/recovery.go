package analyzer

import (
	"fmt"
	"strings"

	"a4nn/internal/obs"
)

// RecoverySummary summarises a run's crash-recovery history from its
// event journal: how often the process launched, what the resume
// preflight quarantined or declared lost, and how much mid-training
// work checkpoints carried across crashes.
type RecoverySummary struct {
	// Launches counts run_start events; more than one means the search
	// was relaunched (crash + -resume, or several runs share the store).
	Launches int
	// Resumes counts models continued from a checkpoint instead of
	// restarting at epoch 1; ResumedEpochs is the training they skipped.
	Resumes       int
	ResumedEpochs int
	// Quarantined counts corrupt files moved to .corrupt/, Lost counts
	// records the journal saw finish but the crash destroyed, Stale
	// counts leftover checkpoints for already-committed records, Temps
	// counts temp files of writes killed before their rename.
	Quarantined, Lost, Stale, Temps int
}

// RecoveryOf folds a journal's events into a recovery summary.
func RecoveryOf(events []obs.Event) RecoverySummary {
	var r RecoverySummary
	for _, e := range events {
		switch e.Type {
		case obs.EventRunStart:
			r.Launches++
		case obs.EventModelResume:
			r.Resumes++
			r.ResumedEpochs += e.Epoch
		case obs.EventRecovery:
			switch e.Reason {
			case "stale":
				r.Stale++
			case "temp":
				r.Temps += e.Count
			case "lost":
				r.Lost++
			default:
				r.Quarantined++
			}
		}
	}
	return r
}

// String renders the summary as a one-line report for CLI output.
func (r RecoverySummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "launches %d, checkpoint resumes %d", r.Launches, r.Resumes)
	if r.ResumedEpochs > 0 {
		fmt.Fprintf(&b, " (%d epochs carried over)", r.ResumedEpochs)
	}
	if r.Quarantined > 0 {
		fmt.Fprintf(&b, ", quarantined %d", r.Quarantined)
	}
	if r.Lost > 0 {
		fmt.Fprintf(&b, ", lost records %d", r.Lost)
	}
	if r.Stale > 0 {
		fmt.Fprintf(&b, ", stale checkpoints cleaned %d", r.Stale)
	}
	if r.Temps > 0 {
		fmt.Fprintf(&b, ", orphan temp files removed %d", r.Temps)
	}
	return b.String()
}

// FormatRecovery renders the summary plus a table of the individual
// recovery and resume events, newest last, for `a4nn-analyze recovery`.
func FormatRecovery(events []obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", RecoveryOf(events))
	var rows [][]string
	for _, e := range events {
		switch e.Type {
		case obs.EventModelResume:
			rows = append(rows, []string{fmt.Sprint(e.Seq), "resume", e.Model,
				fmt.Sprintf("continued from checkpoint at epoch %d", e.Epoch)})
		case obs.EventRecovery:
			rows = append(rows, []string{fmt.Sprint(e.Seq), e.Reason, e.Model, e.Msg})
		}
	}
	if len(rows) == 0 {
		b.WriteString("no recovery events recorded\n")
		return b.String()
	}
	b.WriteString(FormatTable([]string{"seq", "kind", "model", "detail"}, rows))
	return b.String()
}
