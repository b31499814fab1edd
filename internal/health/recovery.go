package health

import (
	"fmt"

	"a4nn/internal/obs"
)

// recoveryMon surfaces crash-recovery activity as alerts: quarantined
// corrupt files and lost records warn (the store took damage — worth a
// human look even though the run repaired itself), while checkpoint
// resumes, stale-checkpoint cleanup and orphan temp files swept are
// normal recovery mechanics and only show in the monitor detail.
// Findings fire on the check following the event and then go quiet, so
// the alert resolves through flap suppression once recovery stops
// finding damage.
type recoveryMon struct {
	quarantined int
	lost        int
	stale       int
	temps       int
	resumes     int

	pendingDamage int // quarantine/lost events since the last check
}

func newRecoveryMon() *recoveryMon {
	return &recoveryMon{}
}

func (r *recoveryMon) name() string { return "recovery" }

func (r *recoveryMon) observe(e obs.Event) {
	switch e.Type {
	case obs.EventRecovery:
		switch e.Reason {
		case "stale":
			r.stale++
		case "temp":
			r.temps += e.Count
		case "lost":
			r.lost++
			r.pendingDamage++
		default:
			r.quarantined++
			r.pendingDamage++
		}
	case obs.EventModelResume:
		r.resumes++
	}
}

func (r *recoveryMon) check(out []finding) []finding {
	if r.pendingDamage > 0 {
		out = append(out, finding{
			Monitor: r.name(), Key: "damage", Severity: SevWarning,
			Message: fmt.Sprintf("crash recovery quarantined %d corrupt file(s) and found %d lost record(s) — the search repaired itself, but the store took damage",
				r.quarantined, r.lost),
			Value: float64(r.quarantined + r.lost),
		})
		r.pendingDamage = 0
	}
	return out
}

func (r *recoveryMon) detail() string {
	if r.quarantined == 0 && r.lost == 0 && r.stale == 0 && r.temps == 0 && r.resumes == 0 {
		return "no recovery activity"
	}
	return fmt.Sprintf("%d quarantined, %d lost records, %d stale checkpoints cleaned, %d orphan temp files removed, %d checkpoint resumes",
		r.quarantined, r.lost, r.stale, r.temps, r.resumes)
}
