package main

import (
	"errors"
	"fmt"
	"os"
)

// flagSpec is the subset of the CLI surface whose combinations can
// silently do nothing; validateFlags rejects the no-op pairings up
// front (instead of running a long search and discarding the part the
// user asked for) and returns warnings for combinations that are legal
// but probably not what was meant. Pure function, unit-tested.
type flagSpec struct {
	Store       string // -store
	MetricsAddr string // -metrics-addr
	Snapshots   bool   // -snapshots
	Pprof       bool   // -pprof
	ProfLayers  bool   // -profile-layers
	DataPath    string // -data
	Health      bool   // -health, or any health spec that implies it
	Strict      bool   // -health-strict
	Chaos       string // -chaos
	History     bool   // -history > 0
	Baseline    string // -regress-baseline
}

// validateFlags returns an error for flag combinations that would
// silently no-op and advisory warnings for dubious-but-legal ones.
func validateFlags(f flagSpec) (warnings []string, err error) {
	if f.Pprof && f.MetricsAddr == "" {
		return nil, errors.New("-pprof needs -metrics-addr")
	}
	if f.Snapshots && f.Store == "" {
		return nil, errors.New("-snapshots needs -store (snapshots live inside the data commons)")
	}
	if f.History && f.Store == "" {
		return nil, errors.New("-history needs -store (the series file lives there)")
	}
	if f.Baseline != "" && !f.History {
		return nil, errors.New("-regress-baseline needs -history (regressions are judged over sampled series)")
	}
	if f.Chaos != "" {
		warnings = append(warnings,
			"-chaos is armed: this process will crash (exit 86) or fail I/O on purpose per the plan")
	}
	if f.Health && f.Store == "" && f.MetricsAddr == "" && !f.Strict {
		warnings = append(warnings,
			"-health without -store (alerts.jsonl), -metrics-addr (/healthz), or -health-strict only prints a summary at exit")
	}
	if f.ProfLayers && f.DataPath == "" {
		warnings = append(warnings,
			"-profile-layers only accounts real training; the surrogate trainer (no -data) decodes no networks")
	}
	return warnings, nil
}

// printWarnings reports advisory flag warnings on stderr.
func printWarnings(warnings []string) {
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "a4nn: warning:", w)
	}
}
