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

// diskMon watches free space on the filesystem holding DiskPath —
// normally the commons directory, because every durability guarantee in
// the crash-consistency model (atomic record writes, checkpoints, the
// append-only journal) dies quietly on a full disk. Free-space
// fractions below the warning / critical watermarks fire accordingly;
// an unreadable filesystem fires its own warning rather than silently
// skipping the check.
type diskMon struct {
	path               string
	warnFrac, critFrac float64
	every              cadence
	// statfs is injectable for tests; the default is the platform
	// syscall (a stub returning an error where unsupported).
	statfs func(path string) (diskUsage, error)

	free    float64 // available fraction of the filesystem
	statErr error

	gFree *obs.Gauge
}

func newDiskMon(cfg Config, reg *obs.Registry) *diskMon {
	return &diskMon{
		path:     cfg.DiskPath,
		warnFrac: cfg.DiskWarnFrac,
		critFrac: cfg.DiskCritFrac,
		every:    cadence{every: cfg.SampleInterval},
		statfs:   statfsImpl,
		gFree:    reg.Gauge("a4nn_health_disk_free_fraction"),
	}
}

func (d *diskMon) name() string { return "disk" }

func (d *diskMon) observe(obs.Event) {}

func (d *diskMon) sample(now time.Time) {
	if !d.every.due(now) {
		return
	}
	u, err := d.statfs(d.path)
	d.statErr = err
	if err != nil || u.totalBytes == 0 {
		return
	}
	d.free = float64(u.availBytes) / float64(u.totalBytes)
	d.gFree.Set(d.free)
}

func (d *diskMon) check(now time.Time, out []finding) []finding {
	d.sample(now)
	if d.statErr != nil {
		return append(out, finding{
			Monitor: d.name(), Key: "stat", Severity: SevWarning,
			Message: fmt.Sprintf("cannot stat %s: %v — free-space watermarks are not being enforced",
				d.path, d.statErr),
		})
	}
	switch {
	case d.free < d.critFrac:
		out = append(out, finding{
			Monitor: d.name(), Key: "space", Severity: SevCritical,
			Message: fmt.Sprintf("%.1f%% free on the commons filesystem (%s), below the %.0f%% critical watermark — records and checkpoints are about to fail",
				100*d.free, d.path, 100*d.critFrac),
			Value: d.free, Threshold: d.critFrac,
		})
	case d.free < d.warnFrac:
		out = append(out, finding{
			Monitor: d.name(), Key: "space", Severity: SevWarning,
			Message: fmt.Sprintf("%.1f%% free on the commons filesystem (%s), below the %.0f%% warning watermark",
				100*d.free, d.path, 100*d.warnFrac),
			Value: d.free, Threshold: d.warnFrac,
		})
	}
	return out
}

func (d *diskMon) detail() string {
	if d.every.last.IsZero() {
		return "not sampled yet"
	}
	if d.statErr != nil {
		return fmt.Sprintf("stat %s failed: %v", d.path, d.statErr)
	}
	return fmt.Sprintf("%.1f%% free at %s (warn <%.0f%%, critical <%.0f%%)",
		100*d.free, d.path, 100*d.warnFrac, 100*d.critFrac)
}
