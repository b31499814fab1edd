// Command benchmark is the repository's benchmark: five workloads, from a
// real-training search to the job service, each measured end to end with
// tracing off and, on request, traced layer by layer.
//
//	go run ./benchmark                                   # all five, end to end
//	go run ./benchmark -trace 1 -out run.json            # plus the traced runs and the span list
//	go run ./benchmark -workload search_insitu -seed 7   # one workload
//	go run ./benchmark -compare parent.json change.json  # deltas against the bounds
//
// -seed is the only workload input. The last line of standard output is
// one JSON object: correct, attempted, failed and the metrics. README.md
// in this directory says why each workload exists and how the metrics
// interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// workloadReport is one workload's section of the -out file.
type workloadReport struct {
	Correct      bool             `json:"correct"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	Units        int              `json:"units"` // searches or jobs in the timed region
	WallSeconds  float64          `json:"wall_s"`
	EndToEnd     map[string]value `json:"end_to_end,omitempty"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	Fingerprints []string         `json:"fingerprints"`
	Problems     []string         `json:"problems,omitempty"`
}

// report is the -out file.
type report struct {
	Env       environment                `json:"env"`
	Scratch   scratch                    `json:"scratch"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Spans     []span                     `json:"spans,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 1, "workload seed (≥ 1): search i uses NAS seed seed+i")
	seconds := fs.Float64("seconds", defaultSeconds, "budget of each workload's timed region")
	trace := fs.Int("trace", 0, "1: record spans and report the per-layer metrics")
	out := fs.String("out", "", "write the machine-readable report (and, traced, the span list) to this file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v)\n", *workload, workloadNames)
			return 2
		}
		names = []string{*workload}
	}
	// Seed 0 would be rewritten to 1 by the job service's defaults and no
	// longer match the solo searches.
	if *seed < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: need -seed ≥ 1, -seconds > 0, -trace 0 or 1, and no other arguments")
		return 2
	}

	sc, err := newScratch()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer sc.remove()
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupted
		sc.remove()
		os.Exit(130)
	}()

	rep := &report{
		Env: currentEnvironment(sc.FS), Scratch: sc, Seed: *seed, Seconds: *seconds,
		Workloads: make(map[string]*workloadReport),
	}
	fmt.Fprintf(stdout, "host: %s, %d cpus, GOMAXPROCS %d, %s; scratch %s (%s); seed %d, %.0f s per workload\n",
		rep.Env.CPU, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, sc.Path, sc.FS, *seed, *seconds)

	outcomes := make(map[string]*outcome)
	line := resultLine{Correct: true, Metrics: make(map[string]value)}
	for _, name := range names {
		wr := &workloadReport{Correct: true}
		rep.Workloads[name] = wr
		var plain *outcome
		// With one workload the driver asks for either run; with all of
		// them the untraced run always goes first, so that the traced
		// one can be set against it.
		if *trace == 0 || len(names) > 1 {
			if plain, err = execute(name, *seed, *seconds, false, sc.Path); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			outcomes[name] = plain
			wr.fold(plain)
			wr.EndToEnd = withUnits(endToEnd, plain.endToEndValues())
		}
		if *trace == 1 {
			traced, err := execute(name, *seed, *seconds, true, sc.Path)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (traced): %v\n", name, err)
				return 1
			}
			if plain != nil {
				// Same work per model, with and without spans.
				traced.layer["bench.trace_overhead_frac"] =
					(traced.wall/float64(traced.models))/(plain.wall/float64(plain.models)) - 1
			} else {
				outcomes[name] = traced
			}
			wr.fold(traced)
			wr.PerLayer = withUnits(perLayer, traced.layer)
			rep.Spans = append(rep.Spans, traced.spans...)
		}
		wr.print(stdout, name)
	}
	if len(names) > 1 {
		crossCheck(rep, outcomes, stdout)
	}
	for _, name := range names {
		wr := rep.Workloads[name]
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		for k, v := range wr.EndToEnd {
			line.Metrics[prefix+k] = v
		}
		for k, v := range wr.PerLayer {
			line.Metrics[prefix+k] = v
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: write report:", err)
			return 1
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !line.Correct {
		fmt.Fprintln(stderr, "benchmark: output checks failed")
		return 1
	}
	return 0
}

// execute runs one workload once, in its own scratch directory.
func execute(name string, seed int64, seconds float64, traced bool, root string) (*outcome, error) {
	dir := filepath.Join(root, name)
	if traced {
		dir += "-traced"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{name: name, seed: seed, seconds: seconds, dir: dir, out: &outcome{}}
	if traced {
		b.tr = newTracer(name)
	}
	runtime.GC() // start every workload from a collected heap
	started := time.Now()
	var err error
	switch name {
	case wlTrainReal:
		err = b.runTrain(trainReal())
	case wlTrainWide:
		err = b.runTrain(trainWide())
	case wlSearchBare:
		err = b.runSearches(false)
	case wlSearchInsitu:
		err = b.runSearches(true)
	case wlServeJobs:
		err = b.runServe()
	}
	if err != nil {
		return nil, err
	}
	if b.out.models == 0 || b.out.wall <= 0 || len(b.out.units) == 0 {
		return nil, fmt.Errorf("nothing measured: %d models in %.2f s, problems %v", b.out.models, b.out.wall, b.out.problems)
	}
	if traced {
		b.out.spans = b.tr.snapshot()
		b.setLayer("core.epochs_per_s", float64(b.out.epochs)/b.out.wall)
		b.setLayer("core.epochs_saved_frac", 1-float64(b.out.epochs)/float64(b.out.epochBudget))
		b.setLayer("core.best_accuracy_pct", b.out.bestSum/float64(b.out.searches))
		b.setLayer("bench.wall_s", time.Since(started).Seconds())
		b.setLayer("bench.spans", float64(len(b.out.spans)))
		// What recording cost: the spans recorded times the measured cost
		// of one. Without an untraced twin in this process that is also
		// the best reading of the overhead.
		cost := float64(len(b.out.spans)) * spanCost() / b.out.wall
		b.setLayer("bench.span_cost_frac", cost)
		b.setLayer("bench.trace_overhead_frac", cost)
	}
	return b.out, nil
}

// spanCost measures the seconds one start/end pair costs.
func spanCost() float64 {
	const n = 20000
	tr := newTracer("calibration")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.start("x", 0))
	}
	return time.Since(t0).Seconds() / n
}

// fold adds one run's counts and verdict to the workload's report.
func (wr *workloadReport) fold(o *outcome) {
	wr.Attempted += o.attempted
	wr.Failed += o.failed
	wr.Problems = append(wr.Problems, o.problems...)
	wr.Correct = wr.Correct && len(o.problems) == 0 && o.failed == 0
	wr.Units = len(o.units)
	wr.WallSeconds = o.wall
	wr.Fingerprints = wr.Fingerprints[:0]
	for _, f := range o.fingerprints {
		wr.Fingerprints = append(wr.Fingerprints, fmt.Sprintf("%016x", f))
	}
}

// withUnits attaches each declared metric's unit to its value; a metric the
// run did not set reads 0.
func withUnits(specs []metricSpec, values map[string]float64) map[string]value {
	m := make(map[string]value, len(specs))
	for _, s := range specs {
		m[s.Name] = value{Value: values[s.Name], Unit: s.Unit}
	}
	return m
}

func (wr *workloadReport) print(w io.Writer, name string) {
	fmt.Fprintf(w, "\n%s: %d units in %.2f s, %d attempted, %d failed\n", name, wr.Units, wr.WallSeconds, wr.Attempted, wr.Failed)
	for _, s := range endToEnd {
		if v, ok := wr.EndToEnd[s.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", s.Name, v.Value, v.Unit)
		}
	}
	for _, s := range perLayer {
		if v, ok := wr.PerLayer[s.Name]; ok && v.Value != 0 {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", s.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "  fingerprints %v\n", wr.Fingerprints)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
}

// crossCheck compares what the three surrogate workloads found: search i
// is the same generated input in each, so wherever two of them both ran
// it, the fingerprints must agree.
func crossCheck(rep *report, outcomes map[string]*outcome, w io.Writer) {
	bare := outcomes[wlSearchBare]
	if bare == nil {
		return
	}
	for _, name := range []string{wlSearchInsitu, wlServeJobs} {
		other := outcomes[name]
		if other == nil {
			continue
		}
		n := min(len(bare.fingerprints), len(other.fingerprints))
		same := 0
		for i := 0; i < n; i++ {
			if bare.fingerprints[i] == other.fingerprints[i] {
				same++
				continue
			}
			wr := rep.Workloads[name]
			wr.Correct = false
			wr.Problems = append(wr.Problems, fmt.Sprintf("%s[%d]: fingerprint differs from %s[%d]", name, i, wlSearchBare, i))
			fmt.Fprintf(w, "  FAILED %s\n", wr.Problems[len(wr.Problems)-1])
		}
		fmt.Fprintf(w, "\n%s: %d of %d searches match %s\n", name, same, n, wlSearchBare)
	}
}
