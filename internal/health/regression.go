package health

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/durable"
)

// --- cross-run regression ------------------------------------------------

// QueryFunc answers "what was this series' mean over [fromMS, toMS]
// (unix milliseconds) and from how many samples". The time-series
// store's (*tsdb.DB).Mean satisfies it; taking a function keeps the
// import arrow pointing tsdb → (nothing) rather than health → tsdb.
type QueryFunc func(series string, fromMS, toMS int64) (mean float64, samples int)

// BaselineSeries is one series' committed reference level.
type BaselineSeries struct {
	Mean float64 `json:"mean"`
	// Direction is "higher-worse" (latencies, queue waits — the
	// default) or "lower-worse" (throughput, accuracy, savings).
	Direction string `json:"direction,omitempty"`
	// Tolerance overrides regressionTolerance for this series (0
	// inherits).
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Baseline is a committed (or prior-run) set of reference levels,
// exported by `a4nn-analyze -baseline-out` and fed back to a later run
// via `a4nn -regress-baseline`.
type Baseline struct {
	Series map[string]BaselineSeries `json:"series"`
}

// LoadBaseline reads a baseline JSON file.
func LoadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("health: baseline %s: %w", path, err)
	}
	if len(b.Series) == 0 {
		return b, fmt.Errorf("health: baseline %s has no series", path)
	}
	return b, nil
}

// Save atomically replaces path with the baseline as indented JSON, so
// a kill mid-save leaves the previous baseline for the next
// -regress-baseline run rather than a torn one it refuses to load.
func (b Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return durable.AtomicWrite(path, append(data, '\n'), 0o644, false,
		chaos.PointBaselinePreRename, chaos.PointBaselinePostRename)
}

// DirectionFor guesses a series' regression direction from its name:
// throughput-, accuracy- and savings-like series are lower-worse,
// everything else (latencies, waits, counts of bad things) is
// higher-worse.
func DirectionFor(name string) string {
	lower := strings.ToLower(name)
	for _, frag := range []string{"gflop", "accuracy", "saved", "throughput", "fitness"} {
		if strings.Contains(lower, frag) {
			return "lower-worse"
		}
	}
	return "higher-worse"
}

// BaselineFrom captures a baseline from recorded history: each series'
// mean over [fromMS, toMS] via q, with DirectionFor directions. Series
// with no samples in the window are skipped.
func BaselineFrom(q QueryFunc, series []string, fromMS, toMS int64) Baseline {
	b := Baseline{Series: make(map[string]BaselineSeries)}
	for _, name := range series {
		mean, n := q(name, fromMS, toMS)
		if n == 0 {
			continue
		}
		b.Series[name] = BaselineSeries{Mean: mean, Direction: DirectionFor(name)}
	}
	return b
}

// The regression monitor compares the trailing regressionWindow of each
// live series, once it holds regressionMinSamples samples, against its
// baseline; a deviation beyond regressionTolerance (relative: 0.25 is
// 25% worse than baseline) counts toward a regression, and
// regressionSustain in a row fire it: one slow window is noise.
const (
	regressionWindow       = time.Minute
	regressionTolerance    = 0.25
	regressionMinSamples   = 5
	regressionSustain      = 3
	regressionEvalInterval = 5 * time.Second
)

// RegressionConfig wires the cross-run regression monitor.
type RegressionConfig struct {
	Baseline Baseline
	// Query reads the live run's history (typically tsdb.DB.Mean).
	Query QueryFunc
	// EvalInterval paces evaluation: check runs on every journal event,
	// but windows only move at the sampling cadence (unset:
	// regressionEvalInterval).
	EvalInterval time.Duration
}

// regression compares the live run's recent series means against a
// committed baseline and fires a warning after regressionSustain
// consecutive windows beyond tolerance. Sustained-streak semantics mirror
// the divergence monitor; the finding routes through the same alert
// manager as every other monitor.
type regression struct {
	cfg    RegressionConfig
	names  []string // sorted baseline keys, for deterministic output
	eval   cadence
	streak map[string]int
	cached []finding
	evals  int
}

func newRegression(cfg RegressionConfig) *regression {
	if cfg.EvalInterval <= 0 {
		cfg.EvalInterval = regressionEvalInterval
	}
	names := make([]string, 0, len(cfg.Baseline.Series))
	for name := range cfg.Baseline.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	return &regression{cfg: cfg, names: names, eval: cadence{every: cfg.EvalInterval},
		streak: make(map[string]int)}
}

func (r *regression) check(now time.Time, out []finding) []finding {
	if !r.eval.due(now) {
		return append(out, r.cached...)
	}
	r.evals++
	r.cached = r.cached[:0]
	to := now.UnixMilli()
	from := to - regressionWindow.Milliseconds()
	for _, name := range r.names {
		base := r.cfg.Baseline.Series[name]
		mean, n := r.cfg.Query(name, from, to)
		if n < regressionMinSamples || base.Mean == 0 || math.IsNaN(mean) {
			r.streak[name] = 0
			continue
		}
		tol := base.Tolerance
		if tol <= 0 {
			tol = regressionTolerance
		}
		dev := (mean - base.Mean) / math.Abs(base.Mean)
		if base.Direction == "lower-worse" {
			dev = -dev
		}
		if dev <= tol {
			r.streak[name] = 0
			continue
		}
		r.streak[name]++
		if r.streak[name] < regressionSustain {
			continue
		}
		worse := "above"
		bound := base.Mean * (1 + tol)
		if base.Direction == "lower-worse" {
			worse = "below"
			bound = base.Mean * (1 - tol)
		}
		r.cached = append(r.cached, finding{Key: name, Severity: SevWarning,
			Message: fmt.Sprintf(
				"regression: %s mean %.4g over last %s is %.0f%% %s baseline %.4g (tolerance %.0f%%, %d windows sustained)",
				name, mean, regressionWindow, math.Abs(dev)*100, worse, base.Mean,
				tol*100, r.streak[name]),
			Value: mean, Threshold: bound})
	}
	return append(out, r.cached...)
}

func (r *regression) detail() string {
	return fmt.Sprintf("%d baseline series, window %s, tolerance %.0f%%, %d evaluations",
		len(r.names), regressionWindow, regressionTolerance*100, r.evals)
}
