package health

import (
	"fmt"
	"runtime/metrics"
	"time"

	"a4nn/internal/obs"
)

// The stdlib runtime/metrics series the sampler reads. Names are
// stable since Go 1.17/1.22.
const (
	goroutinesMetric = "/sched/goroutines:goroutines"
	heapMetric       = "/memory/classes/heap/objects:bytes"
	gcPauseMetric    = "/sched/pauses/total/gc:seconds"
)

// runtimeMon samples the Go runtime at most once per SampleInterval
// (checks between samples reuse the cached reading): goroutine count,
// live heap bytes, the p99 GC pause from the runtime's cumulative
// pause histogram, and — where /proc/self is readable — the OS-level
// resident set size and open-fd count, which catch the leaks the Go
// heap gauges can't see. The readings publish as a4nn_health_* gauges so
// they flush into metrics.json with everything else; threshold
// breaches fire warnings — a leaking search process is the kind of
// slow in-situ failure nothing else in the stack would ever report.
//
// With EmitRuntimeSamples set, each fresh sample also publishes a
// runtime_sample journal event. A monitor that instead *receives*
// runtime_sample events (a follower tailing a producer's journal in
// another process) adopts them and stops sampling its own runtime —
// the thresholds then watch the search process, not the viewer.
type runtimeMon struct {
	every         cadence
	maxGoroutines int
	heapGrowth    float64
	gcPauseP99    time.Duration
	rssWarn       uint64 // bytes; 0 disables
	rssCrit       uint64
	fdWarn        int // 0 disables
	fdCrit        int
	emit          bool
	journal       *obs.Journal

	procRead func() (rssBytes uint64, fds int, ok bool)
	samples  []metrics.Sample
	sampled  bool
	adopted  bool // external samples drive the readings

	goroutines int
	heapBytes  uint64
	heapBase   uint64 // first observed heap size, the growth reference
	pauseP99   float64
	rssBytes   uint64
	fds        int
	procOK     bool // the OS-level readings are real, not platform zeros

	gGoroutines *obs.Gauge
	gHeap       *obs.Gauge
	gPause      *obs.Gauge
	gRSS        *obs.Gauge
	gFDs        *obs.Gauge
}

func newRuntimeMon(cfg Config, reg *obs.Registry, journal *obs.Journal) *runtimeMon {
	r := &runtimeMon{
		every:         cadence{every: cfg.SampleInterval},
		maxGoroutines: cfg.MaxGoroutines,
		heapGrowth:    cfg.HeapGrowthFactor,
		gcPauseP99:    cfg.GCPauseP99,
		emit:          cfg.EmitRuntimeSamples,
		journal:       journal,
		procRead:      procSelfSample,
		samples: []metrics.Sample{
			{Name: goroutinesMetric},
			{Name: heapMetric},
			{Name: gcPauseMetric},
		},
		gGoroutines: reg.Gauge("a4nn_health_goroutines"),
		gHeap:       reg.Gauge("a4nn_health_heap_bytes"),
		gPause:      reg.Gauge("a4nn_health_gc_pause_p99_seconds"),
		gRSS:        reg.Gauge("a4nn_health_rss_bytes"),
		gFDs:        reg.Gauge("a4nn_health_fds"),
	}
	// A negative warn threshold disables the pair, matching the
	// MaxGoroutines convention.
	if cfg.RSSWarnMB > 0 {
		r.rssWarn = uint64(cfg.RSSWarnMB) << 20
	}
	if cfg.RSSCritMB > 0 && cfg.RSSWarnMB > 0 {
		r.rssCrit = uint64(cfg.RSSCritMB) << 20
	}
	if cfg.FDWarn > 0 {
		r.fdWarn = cfg.FDWarn
		r.fdCrit = cfg.FDCrit
	}
	return r
}

func (r *runtimeMon) name() string { return "runtime" }

// observe adopts cross-process runtime samples. A producer (emit set)
// ignores its own events coming back through the broker.
func (r *runtimeMon) observe(e obs.Event) {
	if e.Type != obs.EventRuntimeSample || r.emit {
		return
	}
	r.adopted = true
	r.goroutines = e.Goroutines
	r.heapBytes = e.HeapBytes
	r.pauseP99 = e.GCPauseSec
	r.rssBytes = e.RSSBytes
	r.fds = e.FDs
	r.procOK = e.RSSBytes > 0 || e.FDs > 0
	if !r.sampled {
		r.heapBase = e.HeapBytes
	}
	r.sampled = true
	r.setGauges()
}

func (r *runtimeMon) setGauges() {
	r.gGoroutines.Set(float64(r.goroutines))
	r.gHeap.Set(float64(r.heapBytes))
	r.gPause.Set(r.pauseP99)
	if r.procOK {
		r.gRSS.Set(float64(r.rssBytes))
		r.gFDs.Set(float64(r.fds))
	}
}

// sample reads the runtime, at most once per SampleInterval.
func (r *runtimeMon) sample(now time.Time) {
	if r.adopted || !r.every.due(now) {
		return // an external producer supplies the readings, or not due yet
	}
	metrics.Read(r.samples)
	for _, s := range r.samples {
		switch s.Name {
		case goroutinesMetric:
			if s.Value.Kind() == metrics.KindUint64 {
				r.goroutines = int(s.Value.Uint64())
			}
		case heapMetric:
			if s.Value.Kind() == metrics.KindUint64 {
				r.heapBytes = s.Value.Uint64()
				if !r.sampled {
					r.heapBase = r.heapBytes
				}
			}
		case gcPauseMetric:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				r.pauseP99 = histQuantile(s.Value.Float64Histogram(), 0.99)
			}
		}
	}
	r.rssBytes, r.fds, r.procOK = r.procRead()
	r.sampled = true
	r.setGauges()
	if r.emit {
		r.journal.Emit(obs.Event{
			Type:       obs.EventRuntimeSample,
			Goroutines: r.goroutines,
			HeapBytes:  r.heapBytes,
			GCPauseSec: r.pauseP99,
			RSSBytes:   r.rssBytes,
			FDs:        r.fds,
		})
	}
}

func (r *runtimeMon) check(now time.Time, out []finding) []finding {
	r.sample(now) // the first call always samples, so readings exist from here on
	if r.maxGoroutines > 0 && r.goroutines > r.maxGoroutines {
		out = append(out, finding{
			Monitor: r.name(), Key: "goroutines", Severity: SevWarning,
			Message: fmt.Sprintf("goroutine count %d exceeds %d — a leak in the pool or a stuck subscriber",
				r.goroutines, r.maxGoroutines),
			Value: float64(r.goroutines), Threshold: float64(r.maxGoroutines),
		})
	}
	if r.heapGrowth > 0 && r.heapBase > 0 && float64(r.heapBytes) > r.heapGrowth*float64(r.heapBase) {
		out = append(out, finding{
			Monitor: r.name(), Key: "heap", Severity: SevWarning,
			Message: fmt.Sprintf("live heap grew to %.1f MiB, ×%.1f its first sample (%.1f MiB; threshold ×%.1f)",
				float64(r.heapBytes)/(1<<20), float64(r.heapBytes)/float64(r.heapBase),
				float64(r.heapBase)/(1<<20), r.heapGrowth),
			Value: float64(r.heapBytes) / float64(r.heapBase), Threshold: r.heapGrowth,
		})
	}
	if r.gcPauseP99 > 0 && r.pauseP99 > r.gcPauseP99.Seconds() {
		out = append(out, finding{
			Monitor: r.name(), Key: "gc", Severity: SevWarning,
			Message: fmt.Sprintf("GC pause p99 %.1fms exceeds %.1fms",
				1e3*r.pauseP99, 1e3*r.gcPauseP99.Seconds()),
			Value: r.pauseP99, Threshold: r.gcPauseP99.Seconds(),
		})
	}
	if r.procOK {
		if r.rssCrit > 0 && r.rssBytes > r.rssCrit {
			out = append(out, finding{
				Monitor: r.name(), Key: "rss", Severity: SevCritical,
				Message: fmt.Sprintf("resident set %.0f MiB exceeds critical %.0f MiB — the OS may OOM-kill the search",
					float64(r.rssBytes)/(1<<20), float64(r.rssCrit)/(1<<20)),
				Value: float64(r.rssBytes), Threshold: float64(r.rssCrit),
			})
		} else if r.rssWarn > 0 && r.rssBytes > r.rssWarn {
			out = append(out, finding{
				Monitor: r.name(), Key: "rss", Severity: SevWarning,
				Message: fmt.Sprintf("resident set %.0f MiB exceeds %.0f MiB — growth the Go heap gauges can't see points at mmap/cgo or kernel-side leaks",
					float64(r.rssBytes)/(1<<20), float64(r.rssWarn)/(1<<20)),
				Value: float64(r.rssBytes), Threshold: float64(r.rssWarn),
			})
		}
		if r.fdCrit > 0 && r.fds > r.fdCrit {
			out = append(out, finding{
				Monitor: r.name(), Key: "fds", Severity: SevCritical,
				Message: fmt.Sprintf("%d open file descriptors exceed critical %d — near the ulimit the journal and alert sinks start failing",
					r.fds, r.fdCrit),
				Value: float64(r.fds), Threshold: float64(r.fdCrit),
			})
		} else if r.fdWarn > 0 && r.fds > r.fdWarn {
			out = append(out, finding{
				Monitor: r.name(), Key: "fds", Severity: SevWarning,
				Message: fmt.Sprintf("%d open file descriptors exceed %d — a descriptor leak (unclosed journals, sockets, alert commands)",
					r.fds, r.fdWarn),
				Value: float64(r.fds), Threshold: float64(r.fdWarn),
			})
		}
	}
	return out
}

func (r *runtimeMon) detail() string {
	if !r.sampled {
		return "not sampled yet"
	}
	s := fmt.Sprintf("%d goroutines; heap %.1f MiB (×%.2f of first sample); GC pause p99 %.2fms",
		r.goroutines, float64(r.heapBytes)/(1<<20),
		float64(r.heapBytes)/float64(max(r.heapBase, 1)), 1e3*r.pauseP99)
	if r.procOK {
		s += fmt.Sprintf("; RSS %.1f MiB; %d fds", float64(r.rssBytes)/(1<<20), r.fds)
	}
	return s
}

// histQuantile returns the value at quantile q of a runtime/metrics
// cumulative-bucket histogram (the upper edge of the bucket the
// quantile falls in; -Inf/+Inf edges clamp to their finite neighbour).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			edge := h.Buckets[i+1]
			if edge > 1e308 || edge != edge { // +Inf or NaN edge
				edge = h.Buckets[i]
			}
			if edge < -1e308 {
				edge = 0
			}
			return edge
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
