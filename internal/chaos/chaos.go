// Package chaos is the crash-point injection framework: named, seeded
// crash points threaded through every durable-state transition of the
// workflow (commons writes, journal and alert appends, the generation
// commit). A crash plan — a fault-plan-style key=value spec — kills the
// process or injects an I/O error on the Nth visit to a point, letting
// the soak harness prove that kill-and-resume converges to the same
// search result as a fault-free run.
//
// Chaos is off by default and compiled to a nil-safe no-op: with no
// plan installed, Point is one atomic load and a branch (0 allocs/op,
// enforced by BenchmarkDisabledChaos via the bench gate).
package chaos

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// The crash-point catalogue. Every Point call site names one of these;
// Parse rejects unknown names so a typo in a -chaos spec fails fast
// instead of silently never firing.
const (
	// PointSnapshotPreRename fires before an epoch snapshot rename.
	PointSnapshotPreRename = "commons.snapshot.pre_rename"
	// PointCheckpointPreWrite fires before every checkpoint file's rename,
	// so the file still holds the previous epoch.
	PointCheckpointPreWrite = "commons.checkpoint.pre_write"
	// PointCheckpointPostWrite fires just after a checkpoint rename lands.
	PointCheckpointPostWrite = "commons.checkpoint.post_write"
	// PointJournalAppend fires before an event line is appended to
	// events.jsonl.
	PointJournalAppend = "journal.append.pre_write"
	// PointAlertsAppend fires before an alert line is appended to
	// alerts.jsonl.
	PointAlertsAppend = "alerts.append.pre_write"
	// PointGenerationCommit fires after a generation's models are all
	// trained and recorded, before the search advances — a crash here is
	// recovered by whole-generation replay.
	PointGenerationCommit = "core.generation.commit"
	// PointManifestPreRename and PointManifestPostRename straddle the
	// rename of a job's job.json: before it the previous lifecycle state
	// is still the visible one, after it the new state is committed but
	// the manager has not acted on it.
	PointManifestPreRename  = "jobs.manifest.pre_rename"
	PointManifestPostRename = "jobs.manifest.post_rename"
	// PointMetricsPreRename and PointMetricsPostRename straddle the rename
	// of a run's metrics.json snapshot.
	PointMetricsPreRename  = "obs.metrics.pre_rename"
	PointMetricsPostRename = "obs.metrics.post_rename"
	// PointBaselinePreRename and PointBaselinePostRename straddle the
	// rename of a regression baseline file.
	PointBaselinePreRename  = "health.baseline.pre_rename"
	PointBaselinePostRename = "health.baseline.post_rename"
)

// catalogue maps every valid point name to a one-line description.
var catalogue = map[string]string{
	PointSnapshotPreRename:   "before an epoch snapshot rename",
	PointCheckpointPreWrite:  "before a model checkpoint rename",
	PointCheckpointPostWrite: "after a model checkpoint rename",
	PointJournalAppend:       "before an event journal append",
	PointAlertsAppend:        "before an alert sink append",
	PointGenerationCommit:    "after a generation's records commit",
	PointManifestPreRename:   "before a job manifest rename",
	PointManifestPostRename:  "after a job manifest rename",
	PointMetricsPreRename:    "before a metrics snapshot rename",
	PointMetricsPostRename:   "after a metrics snapshot rename",
	PointBaselinePreRename:   "before a regression baseline rename",
	PointBaselinePostRename:  "after a regression baseline rename",
}

// Points returns the catalogue's point names, sorted.
func Points() []string {
	names := make([]string, 0, len(catalogue))
	for name := range catalogue {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ExitCode is the process exit status of an injected crash. It is
// distinct from ordinary failure (1) so a relaunch loop can tell an
// injected kill from a real bug.
const ExitCode = 86

// InjectedError is the error returned by a point in err mode.
type InjectedError struct {
	// Point is the crash-point name that fired.
	Point string
	// Visit is the 1-based visit count at which the rule fired.
	Visit uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected I/O error at %s (visit %d)", e.Point, e.Visit)
}

// IsInjected reports whether err is (or wraps) a chaos-injected error.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// ruleMode selects what a rule does when it fires.
type ruleMode uint8

const (
	modeCrash ruleMode = iota // kill the process with ExitCode
	modeErr                   // return an InjectedError
)

// rule is one compiled trigger at a point: fire on an exact visit, or
// with a seeded per-visit probability.
type rule struct {
	mode  ruleMode
	visit uint64  // fire on exactly this visit (0 = probabilistic)
	prob  float64 // per-visit probability when visit == 0
}

// Plan is a parsed crash plan. Install compiles it; the zero Plan (or
// a nil one) injects nothing.
type Plan struct {
	// Seed drives probabilistic rules; exact @N rules ignore it.
	Seed int64
	// rules maps point name → triggers, validated against the catalogue.
	rules map[string][]rule
}

// Validate reports the first problem with the plan, or nil.
func (p *Plan) Validate() error {
	for name, rules := range p.rules {
		if _, ok := catalogue[name]; !ok {
			return fmt.Errorf("chaos: unknown crash point %q", name)
		}
		for _, r := range rules {
			if r.visit == 0 && !(r.prob > 0 && r.prob <= 1) { // NaN fails too
				return fmt.Errorf("chaos: point %s probability %v outside (0,1]", name, r.prob)
			}
		}
	}
	return nil
}

// pointState is the per-point runtime state of an installed plan.
type pointState struct {
	count atomic.Uint64
	rules []rule
}

// engine is a compiled, installed plan.
type engine struct {
	seed   int64
	points map[string]*pointState
	// crashing is set when a crash rule fires. Every later visit, on any
	// goroutine, parks until the exit: a kill is an instant, so no
	// durable transition lands while the crash hook runs.
	crashing atomic.Bool
}

var active atomic.Pointer[engine]

// exit is swapped out by tests; os.Exit deliberately skips deferred
// cleanup, approximating a SIGKILL at the crash point.
var exit = os.Exit

// crashHook is invoked once, synchronously, just before an injected
// crash exits the process — the flight recorder's chance to dump its
// black boxes. A SIGKILL would give no such chance; an injected crash
// deliberately does, because the postmortem bundle is itself part of
// what chaos drills are rehearsing.
var crashHook atomic.Pointer[func()]

// SetCrashHook installs f to run before an injected crash's exit.
// Passing nil clears it. The hook must not re-enter chaos points that
// can crash (it runs exactly once, before exit, on the crashing
// goroutine, possibly while journal or alert-sink locks are held — so
// it must not touch those either).
func SetCrashHook(f func()) {
	if f == nil {
		crashHook.Store(nil)
		return
	}
	crashHook.Store(&f)
}

// Install arms the plan process-wide, resetting all visit counters.
// Install(nil) disarms chaos.
func Install(p *Plan) {
	if p == nil || len(p.rules) == 0 {
		active.Store(nil)
		return
	}
	e := &engine{seed: p.Seed, points: make(map[string]*pointState, len(p.rules))}
	for name, rules := range p.rules {
		e.points[name] = &pointState{rules: rules}
	}
	active.Store(e)
}

// Point marks one visit to a named crash point. With no plan installed
// it returns nil at the cost of a single atomic load. With a plan, a
// matching crash rule prints one line to stderr and exits the process
// with ExitCode (other goroutines' visits park meanwhile); a matching
// err rule returns an InjectedError for the caller to propagate as an
// I/O failure.
func Point(name string) error {
	e := active.Load()
	if e == nil {
		return nil
	}
	return e.visit(name)
}

func (e *engine) visit(name string) error {
	if e.crashing.Load() {
		select {}
	}
	ps := e.points[name]
	if ps == nil {
		return nil
	}
	n := ps.count.Add(1)
	for _, r := range ps.rules {
		fire := r.visit == n
		if r.visit == 0 {
			fire = e.uniform(name, n) < r.prob
		}
		if !fire {
			continue
		}
		if r.mode == modeCrash {
			e.crashing.Store(true)
			fmt.Fprintf(os.Stderr, "chaos: crash at point %s (visit %d)\n", name, n)
			if h := crashHook.Load(); h != nil {
				(*h)()
			}
			exit(ExitCode)
			return nil // only reached when exit is stubbed in tests
		}
		return &InjectedError{Point: name, Visit: n}
	}
	return nil
}

// uniform derives a deterministic uniform in [0,1) from the plan seed,
// the point name, and the visit count (splitmix64, as in sched's
// FaultPlan).
func (e *engine) uniform(name string, visit uint64) float64 {
	h := uint64(e.seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = splitmix64(h ^ uint64(name[i]))
	}
	h = splitmix64(h ^ visit)
	return float64(h>>11) / float64(uint64(1)<<53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Parse parses a compact crash-plan specification: ';'- or ','-separated
// key=value fields:
//
//	crash=<point>@N   kill the process (exit 86) on the Nth visit
//	crash=<point>%P   ... with per-visit probability P
//	err=<point>@N     inject an I/O error on the Nth visit
//	err=<point>%P     ... with per-visit probability P
//	seed=N            probabilistic decision seed
//
// Point names come from the catalogue (Points); unknown names are
// rejected. Example: "crash=journal.append.pre_write@40;seed=7".
func Parse(spec string) (*Plan, error) {
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' })
	if len(fields) == 0 {
		return nil, fmt.Errorf("chaos: empty crash plan spec")
	}
	plan := &Plan{rules: make(map[string][]rule)}
	for _, field := range fields {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("chaos: crash plan field %q is not key=value", field)
		}
		switch key {
		case "seed":
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: crash plan field %q: %v", field, err)
			}
			plan.Seed = seed
		case "crash", "err":
			r := rule{mode: modeCrash}
			if key == "err" {
				r.mode = modeErr
			}
			name, err := parseTrigger(val, &r)
			if err != nil {
				return nil, fmt.Errorf("chaos: crash plan field %q: %v", field, err)
			}
			plan.rules[name] = append(plan.rules[name], r)
		default:
			return nil, fmt.Errorf("chaos: unknown crash plan key %q", key)
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// parseTrigger parses "<point>@N" or "<point>%P" into r, returning the
// point name.
func parseTrigger(val string, r *rule) (string, error) {
	if name, nStr, ok := strings.Cut(val, "@"); ok {
		n, err := strconv.ParseUint(nStr, 10, 64)
		if err != nil {
			return "", err
		}
		if n == 0 {
			return "", fmt.Errorf("visit count must be ≥ 1")
		}
		r.visit = n
		return name, nil
	}
	if name, pStr, ok := strings.Cut(val, "%"); ok {
		p, err := strconv.ParseFloat(pStr, 64)
		if err != nil {
			return "", err
		}
		r.prob = p
		return name, nil
	}
	return "", fmt.Errorf("trigger %q needs @N or %%P", val)
}
