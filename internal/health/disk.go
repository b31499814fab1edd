package health

import (
	"fmt"
	"time"

	"a4nn/internal/obs"
)

// diskUsage is one filesystem reading.
type diskUsage struct {
	totalBytes uint64
	availBytes uint64
}

// diskMon holds the disk row's readings of free space on the filesystem
// holding DiskPath — normally the commons directory, because every
// durability guarantee in the crash-consistency model (atomic record
// writes, checkpoints, the append-only journal) dies quietly on a full
// disk. Free-space fractions below the warning / critical watermarks
// fire accordingly; an unreadable filesystem fires its own warning
// rather than silently skipping the check. It samples on the runtime
// row's cadence.
type diskMon struct {
	// statfs is injectable for tests; the default is the platform
	// syscall (a stub returning an error where unsupported).
	statfs func(path string) (diskUsage, error)

	free    float64 // available fraction of the filesystem
	statErr error

	gFree *obs.Gauge
}

func (e *Engine) diskCheck(_ time.Time, out []finding) []finding {
	d, path := &e.disk, e.cfg.DiskPath
	if e.sampleDue {
		u, err := d.statfs(path)
		d.statErr = err
		if err == nil && u.totalBytes > 0 {
			d.free = float64(u.availBytes) / float64(u.totalBytes)
			d.gFree.Set(d.free)
		}
	}
	if d.statErr != nil {
		return append(out, finding{Key: "stat", Severity: SevWarning,
			Message: fmt.Sprintf("cannot stat %s: %v — free-space watermarks are not being enforced",
				path, d.statErr)})
	}
	switch crit, warn := e.cfg.DiskCritFrac, e.cfg.DiskWarnFrac; {
	case d.free < crit:
		out = append(out, finding{Key: "space", Severity: SevCritical,
			Message: fmt.Sprintf("%.1f%% free on the commons filesystem (%s), below the %.0f%% critical watermark — records and checkpoints are about to fail",
				100*d.free, path, 100*crit),
			Value: d.free, Threshold: crit})
	case d.free < warn:
		out = append(out, finding{Key: "space", Severity: SevWarning,
			Message: fmt.Sprintf("%.1f%% free on the commons filesystem (%s), below the %.0f%% warning watermark",
				100*d.free, path, 100*warn),
			Value: d.free, Threshold: warn})
	}
	return out
}

func (e *Engine) diskDetail() string {
	d, path := &e.disk, e.cfg.DiskPath
	switch {
	case e.sampling.last.IsZero():
		return "not sampled yet"
	case d.statErr != nil:
		return fmt.Sprintf("stat %s failed: %v", path, d.statErr)
	}
	return fmt.Sprintf("%.1f%% free at %s (warn <%.0f%%, critical <%.0f%%)",
		100*d.free, path, 100*e.cfg.DiskWarnFrac, 100*e.cfg.DiskCritFrac)
}
