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

// runtimeReading is one reading of a process's runtime: goroutine
// count, live heap bytes, the p99 GC pause and — where /proc/self is
// readable — the OS-level resident set size and open-fd count.
type runtimeReading struct {
	goroutines int
	heapBytes  uint64
	pauseP99   float64
	rssBytes   uint64
	fds        int
	procOK     bool // the OS-level readings are real, not platform zeros
}

// runtimeMon holds the runtime row's readings. The engine samples the Go
// runtime at most once per SampleInterval (checks between samples reuse
// the cached reading); the OS-level readings catch the leaks the Go heap
// gauges can't see. The readings publish as a4nn_health_* gauges so they
// flush into metrics.json with everything else; threshold breaches fire
// warnings — a leaking search process is the kind of slow in-situ
// failure nothing else in the stack would ever report.
//
// With EmitRuntimeSamples set, each fresh sample also publishes a
// runtime_sample journal event. An engine that instead *receives*
// runtime_sample events (a follower tailing a producer's journal in
// another process) adopts them through the fold and stops sampling its
// own runtime — the thresholds then watch the search process, not the
// viewer.
type runtimeMon struct {
	runtimeReading
	heapBase uint64 // first observed heap size, the growth reference
	sampled  bool

	procRead func() (rssBytes uint64, fds int, ok bool)
	samples  []metrics.Sample

	gGoroutines *obs.Gauge
	gHeap       *obs.Gauge
	gPause      *obs.Gauge
	gRSS        *obs.Gauge
	gFDs        *obs.Gauge
}

func newRuntimeMon(reg *obs.Registry) runtimeMon {
	return runtimeMon{
		procRead:    procSelfSample,
		samples:     []metrics.Sample{{Name: goroutinesMetric}, {Name: heapMetric}, {Name: gcPauseMetric}},
		gGoroutines: reg.Gauge("a4nn_health_goroutines"),
		gHeap:       reg.Gauge("a4nn_health_heap_bytes"),
		gPause:      reg.Gauge("a4nn_health_gc_pause_p99_seconds"),
		gRSS:        reg.Gauge("a4nn_health_rss_bytes"),
		gFDs:        reg.Gauge("a4nn_health_fds"),
	}
}

// read samples this process's runtime.
func (r *runtimeMon) read() runtimeReading {
	rd := r.runtimeReading
	metrics.Read(r.samples) // in newRuntimeMon's order
	if v := r.samples[0].Value; v.Kind() == metrics.KindUint64 {
		rd.goroutines = int(v.Uint64())
	}
	if v := r.samples[1].Value; v.Kind() == metrics.KindUint64 {
		rd.heapBytes = v.Uint64()
	}
	if v := r.samples[2].Value; v.Kind() == metrics.KindFloat64Histogram {
		rd.pauseP99 = histQuantile(v.Float64Histogram(), 0.99)
	}
	rd.rssBytes, rd.fds, rd.procOK = r.procRead()
	return rd
}

// take makes rd the current reading and publishes it to the gauges.
func (r *runtimeMon) take(rd runtimeReading) {
	if !r.sampled {
		r.heapBase = rd.heapBytes
	}
	r.runtimeReading, r.sampled = rd, true
	r.gGoroutines.Set(float64(r.goroutines))
	r.gHeap.Set(float64(r.heapBytes))
	r.gPause.Set(r.pauseP99)
	if r.procOK {
		r.gRSS.Set(float64(r.rssBytes))
		r.gFDs.Set(float64(r.fds))
	}
}

// runtimeCheck takes an adopted sample as soon as it arrives, or — with
// none ever adopted — a local one when the sampling cadence is due, and
// holds the latest reading to the thresholds.
func (e *Engine) runtimeCheck(_ time.Time, out []finding) []finding {
	r, cfg := &e.runtime, e.cfg
	switch {
	case e.fold.fresh:
		e.fold.fresh = false
		r.take(e.fold.sample)
	case !e.fold.adopted && e.sampleDue:
		r.take(r.read())
		if cfg.EmitRuntimeSamples {
			e.obs.Journal().Emit(obs.Event{Type: obs.EventRuntimeSample, Goroutines: r.goroutines,
				HeapBytes: r.heapBytes, GCPauseSec: r.pauseP99, RSSBytes: r.rssBytes, FDs: r.fds})
		}
	}
	if cfg.MaxGoroutines > 0 && r.goroutines > cfg.MaxGoroutines {
		out = append(out, finding{Key: "goroutines", Severity: SevWarning,
			Message: fmt.Sprintf("goroutine count %d exceeds %d — a leak in the pool or a stuck subscriber",
				r.goroutines, cfg.MaxGoroutines),
			Value: float64(r.goroutines), Threshold: float64(cfg.MaxGoroutines)})
	}
	if cfg.HeapGrowthFactor > 0 && r.heapBase > 0 && float64(r.heapBytes) > cfg.HeapGrowthFactor*float64(r.heapBase) {
		out = append(out, finding{Key: "heap", Severity: SevWarning,
			Message: fmt.Sprintf("live heap grew to %.1f MiB, ×%.1f its first sample (%.1f MiB; threshold ×%.1f)",
				float64(r.heapBytes)/(1<<20), float64(r.heapBytes)/float64(r.heapBase),
				float64(r.heapBase)/(1<<20), cfg.HeapGrowthFactor),
			Value: float64(r.heapBytes) / float64(r.heapBase), Threshold: cfg.HeapGrowthFactor})
	}
	if pause := cfg.GCPauseP99.Seconds(); pause > 0 && r.pauseP99 > pause {
		out = append(out, finding{Key: "gc", Severity: SevWarning,
			Message: fmt.Sprintf("GC pause p99 %.1fms exceeds %.1fms", 1e3*r.pauseP99, 1e3*pause),
			Value:   r.pauseP99, Threshold: pause})
	}
	if !r.procOK {
		return out
	}
	// A negative warn threshold disables the pair, matching the
	// MaxGoroutines convention.
	rssMiB := float64(r.rssBytes) / (1 << 20)
	if warn, crit := cfg.RSSWarnMB, cfg.RSSCritMB; warn > 0 && crit > 0 && r.rssBytes > uint64(crit)<<20 {
		out = append(out, finding{Key: "rss", Severity: SevCritical,
			Message: fmt.Sprintf("resident set %.0f MiB exceeds critical %.0f MiB — the OS may OOM-kill the search",
				rssMiB, float64(crit)),
			Value: float64(r.rssBytes), Threshold: float64(uint64(crit) << 20)})
	} else if warn > 0 && r.rssBytes > uint64(warn)<<20 {
		out = append(out, finding{Key: "rss", Severity: SevWarning,
			Message: fmt.Sprintf("resident set %.0f MiB exceeds %.0f MiB — growth the Go heap gauges can't see points at mmap/cgo or kernel-side leaks",
				rssMiB, float64(warn)),
			Value: float64(r.rssBytes), Threshold: float64(uint64(warn) << 20)})
	}
	if warn, crit := cfg.FDWarn, cfg.FDCrit; warn > 0 && crit > 0 && r.fds > crit {
		out = append(out, finding{Key: "fds", Severity: SevCritical,
			Message: fmt.Sprintf("%d open file descriptors exceed critical %d — near the ulimit the journal and alert sinks start failing",
				r.fds, crit),
			Value: float64(r.fds), Threshold: float64(crit)})
	} else if warn > 0 && r.fds > warn {
		out = append(out, finding{Key: "fds", Severity: SevWarning,
			Message: fmt.Sprintf("%d open file descriptors exceed %d — a descriptor leak (unclosed journals, sockets, alert commands)",
				r.fds, warn),
			Value: float64(r.fds), Threshold: float64(warn)})
	}
	return out
}

func (e *Engine) runtimeDetail() string {
	r := &e.runtime
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
