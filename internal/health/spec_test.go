package health

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// nonFiniteConfigSpecs are -health-config specs with a NaN, infinite or
// overflowing value. Each used to parse: NaN passes a check written as
// "f <= 0", which silently disabled the check it tuned, and a huge
// millisecond count wrapped time.Duration negative.
var nonFiniteConfigSpecs = []string{
	"divergence-drop=NaN",
	"divergence-drop=+Inf",
	"heap-growth=Inf",
	"min-capacity=NaN",
	"disk-warn=NaN",
	"disk-crit=nan",
	"sample-ms=1e300",
	"gc-pause-ms=1e300",
	"sample-ms=NaN",
	"gc-pause-ms=Inf",
}

// nonFiniteSLOSpecs are the same for -slo, each with a valid objective so
// that only the bad value can refuse it.
var nonFiniteSLOSpecs = []string{
	"event_drop_rate=NaN",
	"queue_wait_p99=2s;fast_burn=NaN",
	"queue_wait_p99=2s;fast_burn=Inf",
	"queue_wait_p99=2s;objective=NaN",
	"job_turnaround=2000000h",
}

func TestKnobsRejectNonFinite(t *testing.T) {
	for _, spec := range nonFiniteConfigSpecs {
		if cfg, err := ParseConfig(spec); err == nil {
			t.Errorf("ParseConfig(%q) accepted %+v", spec, cfg)
		}
	}
	for _, spec := range nonFiniteSLOSpecs {
		if s, err := ParseSLO(spec); err == nil {
			t.Errorf("ParseSLO(%q) accepted %+v", spec, s)
		}
	}
	// A sub-nanosecond millisecond count is not positive once held as a
	// duration; the longest accepted time is a week.
	for _, spec := range []string{"sample-ms=1e-9", "sample-ms=604800001"} {
		if _, err := ParseConfig(spec); err == nil {
			t.Errorf("ParseConfig(%q) accepted", spec)
		}
	}
	if cfg, err := ParseConfig("sample-ms=604800000"); err != nil || cfg.SampleInterval != maxTime {
		t.Errorf("a week of milliseconds: %v, %v", cfg.SampleInterval, err)
	}
}

// checkKnobRanges fails t unless every knob field of v lies inside its
// unit's documented range. Unset SLO objectives (no default) may be 0.
func checkKnobRanges[T any](t *testing.T, spec string, v *T, knobs []knob[T]) {
	t.Helper()
	for _, k := range knobs {
		var ok bool
		switch p := k.ptr(v).(type) {
		case *int:
			ok = *p > 0
		case *float64:
			switch k.unit {
			case fraction:
				ok = *p > 0 && *p < 1
			case seconds:
				ok = *p > 0 && *p <= maxTime.Seconds()
			default:
				ok = *p > 0 && *p <= math.MaxFloat64
			}
			ok = ok || (k.def == "" && *p == 0)
		case *time.Duration:
			ok = *p > 0 && *p <= maxTime || (k.def == "" && *p == 0)
		}
		if !ok {
			t.Fatalf("%q: %s = %v outside its range", spec, k.key, k.ptr(v))
		}
	}
}

// printKnobs writes v back in spec syntax, one key=value per set knob.
func printKnobs[T any](v *T, knobs []knob[T]) string {
	var parts []string
	for _, k := range knobs {
		var s string
		switch p := k.ptr(v).(type) {
		case *int:
			s = strconv.Itoa(*p)
		case *float64:
			if *p == 0 {
				continue
			}
			s = strconv.FormatFloat(*p, 'g', -1, 64)
			if k.unit == seconds {
				s = time.Duration(math.Round(*p * float64(time.Second))).String()
			}
		case *time.Duration:
			if *p == 0 {
				continue
			}
			s = p.String()
			if k.unit == millis {
				s = strconv.FormatFloat(float64(*p)/float64(time.Millisecond), 'g', -1, 64)
			}
		}
		parts = append(parts, k.key+"="+s)
	}
	return strings.Join(parts, ";")
}

// FuzzParseHealthConfig asserts the -health-config parser never panics,
// every accepted config holds each knob inside its unit's range, and
// the config printed back from configKnobs parses to itself.
func FuzzParseHealthConfig(f *testing.F) {
	for _, spec := range nonFiniteConfigSpecs {
		f.Add(spec)
	}
	f.Add("")
	f.Add("divergence-window=5;min-capacity=0.6;gc-pause-ms=20")
	f.Add("sample-ms=0.3,disk-warn=0.999999;disk-crit=0.999998")
	f.Add("rss-warn-mb=1000000,rss-crit-mb=2000000,fd-warn=1000000,fd-crit=2000000")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseConfig(spec)
		if err != nil {
			return
		}
		checkKnobRanges(t, spec, &cfg, configKnobs)
		printed := printKnobs(&cfg, configKnobs)
		again, err := ParseConfig(printed)
		if err != nil || again != cfg {
			t.Fatalf("%q printed as %q parses to %+v, %v\nwant %+v", spec, printed, again, err, cfg)
		}
	})
}

// FuzzParseSLO is FuzzParseHealthConfig for the -slo parser and sloKnobs.
func FuzzParseSLO(f *testing.F) {
	for _, spec := range nonFiniteSLOSpecs {
		f.Add(spec)
	}
	f.Add("queue_wait_p99=2s,job_turnaround=10m,event_drop_rate=0.01")
	f.Add("queue_wait_p99=500ms;objective=0.95;fast_window=30s;slow_window=5m;fast_burn=10;slow_burn=3")
	f.Add("queue_wait_p99=1.000000001s")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSLO(spec)
		if err != nil {
			return
		}
		checkKnobRanges(t, spec, s, sloKnobs)
		printed := printKnobs(s, sloKnobs)
		again, err := ParseSLO(printed)
		if err != nil || *again != *s {
			t.Fatalf("%q printed as %q parses to %+v, %v\nwant %+v", spec, printed, again, err, s)
		}
	})
}
