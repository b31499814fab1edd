package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is BENCHMARK.json at the repository root, as far as this
// package reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, for every (metric, workload) the two reports
// share, how much worse b is than a as a share of a, against the bound in
// ./BENCHMARK.json. It returns 1 when any bound is breached and 2 when
// the reports cannot be compared at all: numbers from different hosts,
// toolchains or scratch filesystems say nothing about the code.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -compare reads the bounds from ./BENCHMARK.json:", err)
		return 2
	}
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if a.Env != b.Env {
		fmt.Fprintf(stderr, "benchmark: refusing to compare across environments:\n  %s: %+v\n  %s: %+v\n", pathA, a.Env, pathB, b.Env)
		return 2
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(stderr, "benchmark: refusing to compare seed %d / %.0f s against seed %d / %.0f s\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
		return 2
	}
	breaches := 0
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", pathA, pathB, "worse by", "bound")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || va.Value == 0 {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
		if fmt.Sprint(wa.Fingerprints) == fmt.Sprint(wb.Fingerprints) {
			fmt.Fprintf(stdout, "%-14s fingerprints identical (%d)\n", name, len(wa.Fingerprints))
		} else {
			// Not a breach: how many searches fit in the budget depends
			// on the speed of the run.
			fmt.Fprintf(stdout, "%-14s fingerprints: %d against %d, first %d equal\n", name,
				len(wa.Fingerprints), len(wb.Fingerprints), commonPrefix(wa.Fingerprints, wb.Fingerprints))
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stderr, "benchmark: %d metric(s) worse than their bound\n", breaches)
		return 1
	}
	return 0
}

func commonPrefix(a, b []string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
