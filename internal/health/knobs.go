package health

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Every tunable of the engine — each -health-config key and each -slo
// key — is one row of a knob table: its spec key, how a value reads, its
// default and the field it fills. DefaultConfig, the zero-field fill New
// applies, ParseConfig, ParseSLO and the SLO monitor's own fill all read
// these tables, so a key or a default is written here and nowhere else.

// unit is how a knob's value reads in a spec and which values it takes.
type unit int

const (
	integer  unit = iota // positive integer
	limit                // positive integer; set in code, a negative disables the check
	number               // positive number
	fraction             // number in (0,1)
	millis               // positive milliseconds, held as a time.Duration
	duration             // positive Go duration ("90s"), held as a time.Duration
	seconds              // positive Go duration, held as float64 seconds
)

// knob is one row of a table over the struct T it tunes.
type knob[T any] struct {
	key  string
	unit unit
	def  string       // default in spec syntax; "" for none (an SLO objective)
	ptr  func(*T) any // the field: *int, *float64 or *time.Duration
}

// configKnobs are Config's tunables, in -health-config syntax.
var configKnobs = []knob[Config]{
	{"divergence-window", integer, "3", func(c *Config) any { return &c.DivergenceWindow }},
	{"divergence-drop", number, "20", func(c *Config) any { return &c.DivergenceDrop }},
	{"plateau-window", integer, "8", func(c *Config) any { return &c.PlateauWindow }},
	{"calibration-window", integer, "8", func(c *Config) any { return &c.CalibrationWindow }},
	{"min-capacity", number, "0.5", func(c *Config) any { return &c.MinCapacity }},
	{"straggler-rate", number, "0.3", func(c *Config) any { return &c.StragglerRate }},
	{"sample-ms", millis, "5000", func(c *Config) any { return &c.SampleInterval }},
	{"max-goroutines", limit, "2000", func(c *Config) any { return &c.MaxGoroutines }},
	{"heap-growth", number, "4", func(c *Config) any { return &c.HeapGrowthFactor }},
	{"gc-pause-ms", millis, "50", func(c *Config) any { return &c.GCPauseP99 }},
	{"rss-warn-mb", limit, "4096", func(c *Config) any { return &c.RSSWarnMB }},
	{"rss-crit-mb", limit, "8192", func(c *Config) any { return &c.RSSCritMB }},
	{"fd-warn", limit, "512", func(c *Config) any { return &c.FDWarn }},
	{"fd-crit", limit, "960", func(c *Config) any { return &c.FDCrit }},
	{"resolve-after", integer, "3", func(c *Config) any { return &c.ResolveAfter }},
	{"alert-cmd-ms", millis, "10000", func(c *Config) any { return &c.AlertCommandInterval }},
	{"disk-warn", fraction, "0.10", func(c *Config) any { return &c.DiskWarnFrac }},
	{"disk-crit", fraction, "0.03", func(c *Config) any { return &c.DiskCritFrac }},
}

// sloKnobs are SLO's objectives (no default: unset is off) and its
// burn-rate tuning, in -slo syntax.
var sloKnobs = []knob[SLO]{
	{"queue_wait_p99", seconds, "", func(s *SLO) any { return &s.QueueWaitP99 }},
	{"job_turnaround", duration, "", func(s *SLO) any { return &s.JobTurnaround }},
	{"event_drop_rate", fraction, "", func(s *SLO) any { return &s.EventDropRate }},
	{"objective", fraction, "0.99", func(s *SLO) any { return &s.Objective }},
	{"fast_window", duration, "1m", func(s *SLO) any { return &s.FastWindow }},
	{"slow_window", duration, "10m", func(s *SLO) any { return &s.SlowWindow }},
	{"fast_burn", number, "14", func(s *SLO) any { return &s.FastBurn }},
	{"slow_burn", number, "6", func(s *SLO) any { return &s.SlowBurn }},
}

// set reads val in k's unit into k's field of dst.
func (k knob[T]) set(dst *T, val string) error {
	bad := func(want string) error {
		return fmt.Errorf("health: %s wants %s, got %q", k.key, want, val)
	}
	switch p := k.ptr(dst).(type) {
	case *int:
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return bad("a positive integer")
		}
		*p = n
	case *float64:
		if k.unit == seconds {
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return bad("a positive duration")
			}
			*p = d.Seconds()
			return nil
		}
		f, err := strconv.ParseFloat(val, 64)
		if k.unit == fraction && (err != nil || f <= 0 || f >= 1) {
			return bad("a fraction in (0,1)")
		}
		if err != nil || f <= 0 {
			return bad("a positive number")
		}
		*p = f
	case *time.Duration:
		if k.unit == millis {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 {
				return bad("positive milliseconds")
			}
			*p = time.Duration(f * float64(time.Millisecond))
			return nil
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return bad("a positive duration")
		}
		*p = d
	}
	return nil
}

// unset reports whether k's field of dst still needs its default: zero,
// or negative unless the knob is a limit a negative value disables.
func (k knob[T]) unset(dst *T) bool {
	switch p := k.ptr(dst).(type) {
	case *int:
		return *p == 0 || (*p < 0 && k.unit != limit)
	case *float64:
		return *p <= 0
	case *time.Duration:
		return *p <= 0
	}
	return false
}

// fill gives every unset field of dst that has a default its default.
// The defaults are constants in the tables, so a failure here is a
// table bug (TestKnobTables).
func fill[T any](dst *T, knobs []knob[T]) {
	for _, k := range knobs {
		if k.def != "" && k.unset(dst) {
			if err := k.set(dst, k.def); err != nil {
				panic(err)
			}
		}
	}
}

// parseSpec applies a spec of key=value pairs separated by ';' or ','
// to dst; what names the spec in errors ("config", "slo").
func parseSpec[T any](spec, what string, knobs []knob[T], dst *T) error {
	for _, kv := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("health: bad %s entry %q (want key=value)", what, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		i := 0
		for i < len(knobs) && knobs[i].key != key {
			i++
		}
		if i == len(knobs) {
			return fmt.Errorf("health: unknown %s key %q", what, key)
		}
		if err := knobs[i].set(dst, val); err != nil {
			return err
		}
	}
	return nil
}
